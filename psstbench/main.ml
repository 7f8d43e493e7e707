(* The benchmark's command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--psst PATH] [--out FILE]
     main.exe compare A B

   A run builds its inputs from the seed, runs the named workload,
   checks the answers and prints, as its last line, one JSON object with
   [correct], [attempted], [failed] and the metrics BENCHMARK.json lists:
   the end-to-end ones untraced, the per-layer ones traced. The lines
   before it give the run environment and every metric the workload
   measured. [--out] appends the same record, with the environment, to
   a results file; [compare] reads two such files. *)

open Psstbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--psst PATH] \
     [--out FILE]\n       main.exe compare A B";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("psstbench: " ^ m); exit 1) fmt

let spec_path = "BENCHMARK.json"

let compare_files a b =
  let spec = Spec.load spec_path in
  let table, worse = Compare.report spec (Compare.read_records a) (Compare.read_records b) in
  print_string table;
  exit (if worse > 0 then 1 else 0)

let run ~workload ~seed ~seconds ~trace ~psst ~out =
  let spec = Spec.load spec_path in
  if not (List.mem_assoc workload spec.workloads) then die "unknown workload %S" workload;
  if not (Sys.file_exists psst) then die "no psst binary at %s" psst;
  let root = ".bench_work" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      Procs.stop_all ();
      Common.rm_rf dir);
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let ticks_before = Env.cpu_ticks () in
  let o =
    match workload with
    | "offline-cold" -> Offline.run ~seed ~seconds ~trace ~dir
    | "served-repeat" -> Served.repeat ~psst ~seed ~seconds ~trace ~dir
    | "served-ingest" -> Served.ingest ~psst ~seed ~seconds ~trace ~dir
    | w -> die "workload %S has no implementation" w
  in
  let ticks_after = Env.cpu_ticks () in
  let env = Env.to_json ~seed ~workload ~trace ~ticks_before ~ticks_after in
  List.iter (fun n -> prerr_endline ("check: " ^ n)) o.notes;
  let measured = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.metrics) in
  print_endline (Json.to_string (Json.Obj [ ("env", env) ]));
  print_endline (Json.to_string (Json.Obj [ ("measured", measured) ]));
  let listed = if trace then spec.per_layer else spec.end_to_end in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name o.metrics with
        | Some v -> (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ])
        | None -> die "workload %s did not measure %s" workload m.name)
      listed
  in
  let fields =
    [ ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics", Json.Obj metrics) ]
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (Json.Obj ([ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
                        ("env", env) ] @ fields)));
      output_char oc '\n';
      close_out oc)
    out;
  print_endline (Json.to_string (Json.Obj fields))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "compare"; a; b ] -> compare_files a b
  | args ->
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = List.assoc_opt k kv in
    let int k =
      match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage ()
    in
    let workload = match get "workload" with Some w -> w | None -> usage () in
    let trace =
      match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage ()
    in
    let seconds = int "seconds" in
    if seconds < 1 then usage ();
    let psst = Option.value (get "psst") ~default:".bench_build/default/bin/psst.exe" in
    (try run ~workload ~seed:(int "seed") ~seconds ~trace ~psst ~out:(get "out") with
    | Spec.Invalid m -> die "BENCHMARK.json: %s" m
    | Json.Parse_error m -> die "BENCHMARK.json: %s" m
    | Sys_error m -> die "%s" m
    | Failure m -> die "%s" m)

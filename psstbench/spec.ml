(* BENCHMARK.json: the command, the benchmark's directories, the run
   length, the workloads and the metrics with their bounds. *)

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let of_json j =
  let open Json in
  let strings key =
    match member key j with
    | Some (Arr items) ->
      List.map
        (function Str s -> s | _ -> invalid "%s: expected strings" key)
        items
    | _ -> invalid "missing list %S" key
  in
  let objects key =
    match member key j with
    | Some (Arr items) -> items
    | _ -> invalid "missing list %S" key
  in
  let field key o =
    match str_member key o with Some s -> s | None -> invalid "missing %S" key
  in
  let metric ~bounded o =
    let better =
      match field "better" o with
      | "lower" -> `Lower
      | "higher" -> `Higher
      | b -> invalid "better must be lower or higher, got %S" b
    in
    let bound =
      match (bounded, num_member "bound" o) with
      | true, Some b when b > 0. && b <= 0.25 -> Some b
      | true, _ -> invalid "%s: bound must be in (0, 0.25]" (field "name" o)
      | false, None -> None
      | false, Some _ -> invalid "%s: per-layer metrics have no bound" (field "name" o)
    in
    { name = field "name" o; unit_ = field "unit" o; better; bound }
  in
  (match j with
  | Obj fields ->
    List.iter
      (fun (k, _) ->
        if
          not
            (List.mem k
               [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
        then invalid "unexpected key %S" k)
      fields
  | _ -> invalid "not an object");
  let run_seconds =
    match num_member "run_seconds" j with
    | Some f when Float.is_integer f && f >= 1. && f <= 60. -> int_of_float f
    | _ -> invalid "run_seconds must be a whole number in 1..60"
  in
  let t =
    {
      command = strings "command";
      paths = strings "paths";
      run_seconds;
      workloads = List.map (fun o -> (field "name" o, field "why" o)) (objects "workloads");
      end_to_end = List.map (metric ~bounded:true) (objects "end_to_end");
      per_layer = List.map (metric ~bounded:false) (objects "per_layer");
    }
  in
  let names =
    List.map fst t.workloads
    @ List.map (fun m -> m.name) (t.end_to_end @ t.per_layer)
  in
  List.iter
    (fun n ->
      if List.length (List.filter (( = ) n) names) > 1 then invalid "name %S used twice" n)
    names;
  if not (List.exists (fun m -> m.name = "setup_s") t.end_to_end) then
    invalid "end_to_end lacks setup_s";
  t

let load path = of_json (Json.of_file path)

(* The run environment recorded with every result, so that a noisy run
   can be explained: source revision, CPU count, compiler, seed, and the
   steal and iowait ticks the kernel accounted over the run. *)

let read_first_line path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)
  | exception Sys_error _ -> None

(* The checked-out revision, read from [.git] without running git; a
   checkout exported without history reports "unknown". *)
let git_rev () =
  match read_first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then
      let r = String.sub head pl (String.length head - pl) in
      match read_first_line (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
        match open_in ".git/packed-refs" with
        | exception Sys_error _ -> "unknown"
        | ic ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> "unknown"
            | line -> (
              match String.split_on_char ' ' line with
              | [ rev; name ] when name = r -> rev
              | _ -> go ())
          in
          Fun.protect ~finally:(fun () -> close_in ic) go)
    else head

(* (iowait, steal) from the aggregate line of /proc/stat. *)
let cpu_ticks () =
  match read_first_line "/proc/stat" with
  | None -> None
  | Some line -> (
    match
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    with
    | "cpu" :: _user :: _nice :: _system :: _idle :: iowait :: _irq :: _softirq
      :: steal :: _ -> (
      match (int_of_string_opt iowait, int_of_string_opt steal) with
      | Some i, Some s -> Some (i, s)
      | _ -> None)
    | _ -> None)

let to_json ~seed ~workload ~trace ~ticks_before ~ticks_after =
  let ticks =
    match (ticks_before, ticks_after) with
    | Some (i0, s0), Some (i1, s1) ->
      [ ("iowait_ticks", Json.Num (float_of_int (i1 - i0)));
        ("steal_ticks", Json.Num (float_of_int (s1 - s0))) ]
    | _ -> [ ("iowait_ticks", Json.Null); ("steal_ticks", Json.Null) ]
  in
  Json.Obj
    ([ ("git_rev", Json.Str (git_rev ()));
       ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("workload", Json.Str workload);
       ("seed", Json.Num (float_of_int seed));
       ("trace", Json.Bool trace) ]
    @ ticks)

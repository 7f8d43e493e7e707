(* [compare A B]: per workload and end-to-end metric, each side's median
   and quartiles, the relative delta of the medians, and a verdict
   against the metric's bound. *)

type verdict = Better | Unchanged | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [a] is the base side, [b] the candidate. A metric whose run-to-run
   spread (interquartile distance over median, on either side) exceeds
   its bound cannot be judged and is unresolved — unless every run of
   [b] beats every run of [a]. Otherwise [b] is worse when its median
   loses more than the bound, better when it gains more than [a]'s own
   spread, and unchanged in between. *)
let verdict ~better ~bound a b =
  let gain x y = match better with `Lower -> x -. y | `Higher -> y -. x in
  let ma = Stats.median a and mb = Stats.median b in
  let rel = if ma = 0. then 0. else gain ma mb /. Float.abs ma in
  let beats_all =
    List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) a) b
  in
  if Stats.rel_spread a > bound || Stats.rel_spread b > bound then
    if beats_all then Better else Unresolved
  else if rel < -.bound then Worse
  else if rel > Stats.rel_spread a && rel > 0. then Better
  else Unchanged

type record = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* A results file holds one JSON record per line, as written by
   [--out]; lines that are not records are skipped. *)
let read_records path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | line -> (
      match Json.parse line with
      | j -> (
        match
          ( Json.str_member "workload" j, Json.member "correct" j,
            Json.num_member "attempted" j, Json.num_member "failed" j,
            Json.member "metrics" j )
        with
        | Some workload, Some (Json.Bool correct), Some attempted, Some failed,
          Some (Json.Obj ms) ->
          let metrics =
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.num_member "value" v))
              ms
          in
          go
            ({ workload; correct; attempted = int_of_float attempted;
               failed = int_of_float failed; metrics }
            :: acc)
        | _ -> go acc)
      | exception Json.Parse_error _ -> go acc)
  in
  go []

let values records ~workload ~metric =
  List.filter_map
    (fun r -> if r.workload = workload then List.assoc_opt metric r.metrics else None)
    records

(* A side's runs of [workload]: whether all were correct, and the share
   of attempted operations that failed. *)
let failures records ~workload =
  let rs = List.filter (fun r -> r.workload = workload) records in
  let attempted = List.fold_left (fun n r -> n + r.attempted) 0 rs
  and failed = List.fold_left (fun n r -> n + r.failed) 0 rs in
  ( List.for_all (fun r -> r.correct) rs,
    if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted )

(* A gain does not count when B answers wrongly or fails more of its
   operations than A: then every metric of the workload is worse. *)
let degraded a b ~workload =
  let _, fa = failures a ~workload and ok_b, fb = failures b ~workload in
  (not ok_b) || fb > fa

let report (spec : Spec.t) a b =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-14s %-22s %10s %10s %10s %10s %10s %10s %8s  %s\n"
    "workload" "metric" "A.q1" "A.med" "A.q3" "B.q1" "B.med" "B.q3" "delta" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (w, _) ->
      let degraded = degraded a b ~workload:w in
      List.iter
        (fun (m : Spec.metric) ->
          let va = values a ~workload:w ~metric:m.name
          and vb = values b ~workload:w ~metric:m.name in
          match (va, vb, m.bound) with
          | _ :: _, _ :: _, Some bound ->
            let a1, a2, a3 = Stats.quartiles va and b1, b2, b3 = Stats.quartiles vb in
            let v = if degraded then Worse else verdict ~better:m.better ~bound va vb in
            if v = Worse then incr worse;
            Printf.bprintf buf
              "%-14s %-22s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%%  %s\n" w
              m.name a1 a2 a3 b1 b2 b3
              (if a2 = 0. then 0. else 100. *. (b2 -. a2) /. Float.abs a2)
              (verdict_name v)
          | _ -> ())
        spec.end_to_end;
      if degraded then
        Printf.bprintf buf "%-14s B has an incorrect run or fails a larger share of operations\n" w)
    spec.workloads;
  (Buffer.contents buf, !worse)

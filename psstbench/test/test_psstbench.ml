(* Self-tests of the benchmark's helpers: order statistics, the seeded
   skewed sequence, the compare verdict and BENCHMARK.json. *)

open Psstbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Percentiles pick the nearest rank. *)
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" (Stats.percentile xs 0.5 = 50.);
  check "p99 of 1..100" (Stats.percentile xs 0.99 = 99.);
  check "p100 is the max" (Stats.percentile xs 1.0 = 100.);
  check "p0 is the min" (Stats.percentile xs 0.0 = 1.);
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* Quartiles match Python's statistics.quantiles(n=4), computed there:
     quantiles([1..10]) = [2.75, 5.5, 8.25];
     quantiles([3, 1, 4, 1, 5]) = [1.0, 3.0, 4.5];
     quantiles([1, 2]) = [0.75, 1.5, 2.25]. *)
  let q = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (match q with a, b, c -> close a 2.75 && close b 5.5 && close c 8.25);
  let q = Stats.quartiles [ 3.; 1.; 4.; 1.; 5. ] in
  check "quartiles 5 values" (match q with a, b, c -> close a 1. && close b 3. && close c 4.5);
  let q = Stats.quartiles [ 1.; 2. ] in
  check "quartiles 2 values" (match q with a, b, c -> close a 0.75 && close b 1.5 && close c 2.25);
  check "relative spread"
    (close (Stats.rel_spread (List.init 10 (fun i -> float_of_int (i + 1)))) (5.5 /. 5.5));
  (* The skewed sequence is a function of its arguments alone. *)
  let a = Skew.sequence ~seed:7 ~pool:24 ~s:1.0 ~length:5000 in
  let b = Skew.sequence ~seed:7 ~pool:24 ~s:1.0 ~length:5000 in
  let c = Skew.sequence ~seed:8 ~pool:24 ~s:1.0 ~length:5000 in
  check "same seed, same sequence" (a = b);
  check "other seed, other sequence" (a <> c);
  check "indices inside the pool" (Array.for_all (fun k -> k >= 0 && k < 24) a);
  let counts = Array.make 24 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) a;
  let sorted = Array.copy counts in
  Array.sort (fun x y -> compare y x) sorted;
  (* Zipf with s = 1 over 24 ranks gives the top rank 1/H(24) ~ 26%. *)
  check "skewed towards one query" (sorted.(0) > 1000 && sorted.(0) < 1600);
  check "every rank drawn" (sorted.(23) > 0);
  (* The verdict rule. *)
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.; 100.2; 99.8; 100.1; 99.9 ] in
  let shift f = List.map f base in
  let v = Compare.verdict ~better:`Lower ~bound:0.1 in
  check "identical is unchanged" (v base base = Compare.Unchanged);
  check "12% slower is worse" (v base (shift (fun x -> x *. 1.12)) = Compare.Worse);
  check "5% slower is unchanged" (v base (shift (fun x -> x *. 1.05)) = Compare.Unchanged);
  check "5% faster is better" (v base (shift (fun x -> x *. 0.95)) = Compare.Better);
  check "higher-is-better flips the sign"
    (Compare.verdict ~better:`Higher ~bound:0.1 base (shift (fun x -> x *. 1.05))
    = Compare.Better);
  let noisy = [ 50.; 150.; 80.; 120.; 100.; 60.; 140.; 100.; 90.; 110. ] in
  check "wide spread is unresolved" (v base noisy = Compare.Unresolved);
  check "wide spread but every run wins is better"
    (v noisy (List.map (fun x -> x *. 0.2) noisy |> List.map (fun x -> Float.min x 29.))
    = Compare.Better);
  (* More failures or a wrong answer on B outweigh any gain. *)
  let record ?(correct = true) failed =
    { Compare.workload = "w"; correct; attempted = 100; failed; metrics = [ ("m", 1.) ] }
  in
  check "same failures, not degraded"
    (not (Compare.degraded [ record 1 ] [ record 1 ] ~workload:"w"));
  check "fewer failures, not degraded"
    (not (Compare.degraded [ record 2 ] [ record 1 ] ~workload:"w"));
  check "more failures, degraded" (Compare.degraded [ record 0 ] [ record 1 ] ~workload:"w");
  check "incorrect run, degraded"
    (Compare.degraded [ record 0 ] [ record 0; record ~correct:false 0 ] ~workload:"w");
  (* Windowed throughput: the median of whole one-second windows. *)
  let times = List.init 10 (fun i -> 0.05 +. (0.1 *. float_of_int i)) in
  let burst = times @ List.map (fun t -> t +. 1.) times @ List.map (fun t -> t +. 3.) times in
  check "window rate ignores a stalled window"
    (Stats.window_rate ~start:0. ~seconds:4 burst = 10.);
  check "window rate drops what lies past the last window"
    (Stats.window_rate ~start:0. ~seconds:1 burst = 10.);
  (* BENCHMARK.json reads back and satisfies its own rules. *)
  let spec = Spec.load "../../BENCHMARK.json" in
  check "run_seconds in range" (spec.run_seconds >= 1 && spec.run_seconds <= 60);
  check "2 to 8 workloads"
    (List.length spec.workloads >= 2 && List.length spec.workloads <= 8);
  check "setup_s is end-to-end" (List.exists (fun m -> m.Spec.name = "setup_s") spec.end_to_end);
  check "bounds at most 0.25"
    (List.for_all
       (fun m -> match m.Spec.bound with Some b -> b > 0. && b <= 0.25 | None -> false)
       spec.end_to_end);
  check "paths are the benchmark's" (spec.paths = [ "psstbench" ]);
  let rejects s =
    match Spec.of_json (Json.parse s) with
    | _ -> false
    | exception Spec.Invalid _ -> true
  in
  let minimal bound extra =
    Printf.sprintf
      {|{"command": ["bash"], "paths": ["p"], "run_seconds": 10,
         "workloads": [{"name": "a", "why": "x"}],
         "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": %s}],
         "per_layer": []%s}|} bound extra
  in
  check "minimal spec reads" (not (rejects (minimal "0.1" "")));
  check "bound above 0.25 rejected" (rejects (minimal "0.3" ""));
  check "unknown key rejected" (rejects (minimal "0.1" {|, "extra": 1|}));
  (* JSON round trip keeps every digit. *)
  let v = Json.Obj [ ("x", Json.Num 0.1234567890123); ("s", Json.Str "a\"b") ] in
  check "json round trip" (Json.parse (Json.to_string v) = v);
  if !failures > 0 then exit 1;
  print_endline "psstbench self-tests: ok"

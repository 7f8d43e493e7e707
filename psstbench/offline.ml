(* offline-cold: [Query.run] in process, without a cache, over the
   10^3-graph Fig 9 corpus. The index is built, saved as the flat image
   and memory-mapped back; then a pool of distinct motif queries,
   organisms taken in turn, is answered once each, in pool order. The
   pool grows with the run length ([queries_per_second]; a motif query
   takes about 3 s), so the work of a run does not depend on how fast
   it goes.

   Queries run on one pool of two domains kept for the whole run, as a
   resident process runs them: [Query.run_batch_on] with one query,
   which answers exactly as [Query.run ~domains:2]. [Query.run] spawns
   a fresh pool per call, and with it the process's peak resident set
   swung between 123 and 176 MiB from run to run on the same six
   queries, against 87–93 MiB with one pool. The traced run times the
   same call and replays each query after it, outside the timing. *)

open Common

let num_graphs = 1000
let domains = 2
let queries_per_second = 2. /. 3.

let run ~seed ~seconds ~trace ~dir =
  let o = create () in
  let t_setup = now () in
  let ds = corpus ~seed num_graphs in
  let db0, index_layers = build_index ~traced:trace ~domains ds.graphs in
  let path = Filename.concat dir "index.psst" in
  let (), save_s = time (fun () -> Query.save_database ~flat:true path db0) in
  let db, load_s = time (fun () -> Query.load_database ~mmap:true path) in
  let nq = max 5 (int_of_float (queries_per_second *. float_of_int seconds)) in
  let pool = motif_pool ds (Psst_util.Prng.make (seed + 777)) ~size:nq in
  let setup_s = now () -. t_setup in
  let replay = if trace then Some (Replay.create ()) else None in
  let bad = Array.make nq false in
  let fail k msg =
    bad.(k) <- true;
    note o (Printf.sprintf "query %d: %s" k msg)
  in
  let outs =
    Psst_util.Pool.with_pool ~domains (fun workers ->
        Array.mapi
          (fun k q ->
            let out, dt =
              time (fun () -> List.hd (Query.run_batch_on workers db [ q ] config))
            in
            Option.iter
              (fun acc ->
                if Replay.run acc db q config <> out.Query.answers then
                  fail k "the traced replay differs from Query.run")
              replay;
            (out, dt))
          pool)
  in
  let peak_rss = Procs.self_peak_rss_mib () in
  (* Checks on every query, outside the timed loop. *)
  let rng = Random.State.make [| seed; 17 |] in
  let exact = ref 0 in
  Array.iteri
    (fun k ((out : Query.outcome), _) ->
      if not (stats_balance (Psst_proto.stats_of_query out.stats)) then
        fail k "pruning counters do not add up";
      let ok, n = oracle_check o ~what:(Printf.sprintf "query %d" k) db pool.(k) out.answers rng in
      exact := !exact + n;
      if not ok then bad.(k) <- true)
    outs;
  require_exact_checks o !exact;
  o.attempted <- nq;
  o.failed <- Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad;
  let lat = Array.to_list (Array.map snd outs) in
  add o "setup_s" setup_s;
  add o "queries_per_s" (float_of_int nq /. List.fold_left ( +. ) 0. lat);
  add o "query_p50_ms" (1000. *. Stats.median lat);
  add o "index_bytes_per_graph" (float_of_int (Procs.file_size path) /. float_of_int num_graphs);
  add o "peak_rss_mb" peak_rss;
  add o "oracle.exact_checked" (float_of_int !exact);
  if trace then begin
    o.metrics <- o.metrics @ index_layers;
    add o "index.save_s" save_s;
    add o "index.load_s" load_s;
    add o "index.pmi_entries" (float_of_int (Pmi.filled_entries db.Query.pmi));
    Option.iter (fun acc -> o.metrics <- o.metrics @ Replay.metrics acc) replay;
    o.metrics <- o.metrics @ no_cache_metrics;
    o.metrics <-
      o.metrics
      @ wire_metrics
          (List.mapi run_request (Array.to_list pool))
          (List.mapi answer_reply (Array.to_list (Array.map fst outs)))
  end;
  o

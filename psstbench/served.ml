(* The served workloads: real [psst serve] processes driven through the
   public client. *)

open Common

let unix path = Psst_proto.Unix_socket path

let connect ep = Psst_client.connect ~connect_timeout_ms:5000. ~call_timeout_ms:120_000. ep

(* One query over [c]; [Ok (answers, stats)] or [Error message], also
   when the connection breaks. *)
let ask c id q =
  match Psst_client.rpc c (run_request id q) with
  | Psst_proto.Answer { answers; stats; _ } -> Ok (answers, stats)
  | Psst_proto.Error_reply { code; message; _ } ->
    Error (Printf.sprintf "%s: %s" (Psst_proto.error_code_name code) message)
  | _ -> Error "unexpected reply kind"
  | exception (End_of_file | Psst_proto.Proto_error _ | Psst_proto.Timed_out
              | Psst_client.Client_error _ | Unix.Unix_error _ as e) ->
    Error (Printexc.to_string e)

let serve ~psst ~dir name args =
  Procs.spawn ~exe:psst ~log:(Filename.concat dir (name ^ ".log")) name ("serve" :: args)

(* ------------------------------------------------------------------ *)
(* served-repeat: a router in front of two shard workers, each with the
   verification cache on. After a warm pass over the pool, two
   closed-loop connections replay a seeded Zipf sequence of pool queries
   until the run length has passed, so every timed request is a cache
   hit. The pool holds motif queries, two per organism: their cached
   cost (structural filter and bound evaluation over the organism's
   graphs) is alike, so a run's median does not hinge on which query
   the skew happens to favour. *)

let repeat_graphs = 300
let repeat_pool = 10
let zipf_s = 0.5

let repeat ~psst ~seed ~seconds ~trace ~dir =
  let o = create () in
  let t_setup = now () in
  let ds = corpus ~seed repeat_graphs in
  let corpus_path = Filename.concat dir "corpus.pgdb" in
  Pgraph_io.save_binary corpus_path ds.graphs;
  let db, index_layers = build_index ~traced:trace ~domains:2 ds.graphs in
  let index_path = Filename.concat dir "index.psst" in
  let (), save_s = time (fun () -> Query.save_database index_path db) in
  let shard_dir = Filename.concat dir "shards" in
  Unix.mkdir shard_dir 0o755;
  let manifest = Filename.concat shard_dir "manifest" in
  Procs.run ~exe:psst ~log:(Filename.concat dir "shard.log") "psst shard"
    [ "shard"; "--input"; corpus_path; "--index"; index_path; "--shards"; "2"; "-o"; manifest ];
  let wsock i = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
  let rsock = Filename.concat dir "r.sock" in
  let workers =
    List.init 2 (fun i ->
        serve ~psst ~dir (Printf.sprintf "worker%d" i)
          [ "--manifest"; manifest; "--shard"; string_of_int i; "--socket"; wsock i;
            "--domains"; "1" ])
  in
  let router =
    serve ~psst ~dir "router"
      [ "--role"; "router"; "--worker"; "unix:" ^ wsock 0; "--worker"; "unix:" ^ wsock 1;
        "--socket"; rsock ]
  in
  List.iteri (fun i w -> Procs.wait_ready w (unix (wsock i))) workers;
  Procs.wait_ready router (unix rsock);
  let pool = motif_pool ds (Psst_util.Prng.make (seed + 777)) ~size:repeat_pool in
  let warm =
    let c = connect (unix rsock) in
    Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
        Array.mapi
          (fun k q ->
            match ask c k q with
            | Ok r -> r
            | Error m -> failwith (Printf.sprintf "warm pass, query %d: %s" k m))
          pool)
  in
  let setup_s = now () -. t_setup in
  let endpoints = unix rsock :: List.init 2 (fun i -> unix (wsock i)) in
  let before = List.map registry endpoints in
  let seq = Skew.sequence ~seed ~pool:repeat_pool ~s:zipf_s ~length:1_000_000 in
  let next = Atomic.make 0 in
  let deadline = now () +. float_of_int seconds in
  let client () =
    let c = connect (unix rsock) in
    let lat = ref [] and done_at = ref [] and bad = ref [] in
    Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length seq && now () < deadline then begin
            let k = seq.(i) in
            let r, dt = time (fun () -> ask c i pool.(k)) in
            (match r with
            | Ok (answers, _) when answers = fst warm.(k) ->
              lat := dt :: !lat;
              done_at := now () :: !done_at
            | Ok _ -> bad := Printf.sprintf "request %d: answers differ from the warm pass" i :: !bad
            | Error m -> bad := Printf.sprintf "request %d: %s" i m :: !bad);
            go ()
          end
        in
        go ());
    (!lat, !done_at, !bad)
  in
  let results = Array.make 2 ([], [], []) in
  let t_timed = now () in
  let threads = List.init 2 (fun i -> Thread.create (fun () -> results.(i) <- client ()) ()) in
  List.iter Thread.join threads;
  let timed_s = now () -. t_timed in
  let after = List.map registry endpoints in
  let client_peak = Procs.self_peak_rss_mib () in
  let lat = Array.to_list results |> List.concat_map (fun (l, _, _) -> l) in
  let done_at = Array.to_list results |> List.concat_map (fun (_, d, _) -> d) in
  let bad = Array.to_list results |> List.concat_map (fun (_, _, b) -> b) in
  o.attempted <- List.length lat + List.length bad;
  o.failed <- List.length bad;
  List.iter (note o) bad;
  let peak = List.fold_left (fun a p -> a +. Procs.peak_rss_mib p) 0. (router :: workers) in
  add o "rss.servers_mb" peak;
  List.iter Procs.stop (router :: workers);
  (* Routed answers against the monolithic database in process: served
     = offline and sharded = monolithic at once. *)
  let replay = if trace then Some (Replay.create ()) else None in
  let rng = Random.State.make [| seed; 17 |] in
  let checked = Hashtbl.create 16 in
  let exact = ref 0 in
  Array.iteri
    (fun k q ->
      let answers, stats = warm.(k) in
      let key = Lgraph.to_string q in
      if not (Hashtbl.mem checked key) then begin
        Hashtbl.replace checked key ();
        let what = Printf.sprintf "query %d" k in
        if offline_answers o ?replay ~what ~domains:2 db q <> answers then
          fail_run o (Printf.sprintf "query %d: routed answers differ from the monolithic run" k);
        if not (stats_balance stats) then
          fail_run o (Printf.sprintf "query %d: pruning counters do not add up" k);
        let ok, n = oracle_check o ~what db q answers rng in
        exact := !exact + n;
        if not ok then o.correct <- false
      end)
    pool;
  require_exact_checks o !exact;
  add o "setup_s" setup_s;
  add o "queries_per_s" (Stats.window_rate ~start:t_timed ~seconds done_at);
  add o "queries_per_s.whole_run" (float_of_int (List.length lat) /. timed_s);
  add o "query_p50_ms" (1000. *. Stats.median lat);
  add o "query_p99_ms" (1000. *. Stats.percentile lat 0.99);
  add o "index_bytes_per_graph"
    (float_of_int (dir_bytes shard_dir) /. float_of_int repeat_graphs);
  add o "peak_rss_mb" (peak +. client_peak);
  add o "oracle.exact_checked" (float_of_int !exact);
  if trace then begin
    let rb = List.hd before and ra = List.hd after in
    let wb = List.tl before and wa = List.tl after in
    let wpairs = List.combine wb wa in
    let mean_rtt_ms = 1000. *. Stats.mean lat in
    let router_ms = hist_mean_ms rb ra "router.latency_s" in
    let worker_ms = List.map (fun (b, a) -> hist_mean_ms b a "server.latency_s") wpairs in
    let worker_busy =
      List.map (fun (b, a) -> snd (hist_delta b a "server.latency_s")) wpairs
    in
    let wait_ms =
      Stats.mean (List.map (fun (b, a) -> hist_mean_ms b a "server.queue.wait_s") wpairs)
    in
    o.metrics <- o.metrics @ index_layers;
    add o "index.save_s" save_s;
    let _, load_s = time (fun () -> Query.load_database index_path) in
    add o "index.load_s" load_s;
    add o "index.pmi_entries" (float_of_int (Pmi.filled_entries db.Query.pmi));
    Option.iter (fun acc -> o.metrics <- o.metrics @ Replay.metrics acc) replay;
    o.metrics <- o.metrics @ cache_metrics wpairs;
    o.metrics <-
      o.metrics
      @ wire_metrics
          (List.mapi run_request (Array.to_list pool))
          (Array.to_list
             (Array.mapi
                (fun id (answers, stats) -> Psst_proto.Answer { id; answers; stats })
                warm));
    add o "server.queue_wait_ms" wait_ms;
    add o "server.exec_ms" (Stats.mean worker_ms -. wait_ms);
    add o "wire.overhead_ms" (mean_rtt_ms -. router_ms);
    add o "router.exec_ms" router_ms;
    add o "router.hop_ms" (router_ms -. List.fold_left max 0. worker_ms);
    add o "shard.imbalance"
      (List.fold_left max 0. worker_busy /. Stats.mean worker_busy)
  end;
  o

(* ------------------------------------------------------------------ *)
(* served-ingest: a writable primary with one standby, so every ingest
   ack waits for the standby. Rounds run one after another: one
   Add_graphs batch of fresh graphs, its ack, then the query pool at the
   new epoch. The round count follows from the run length alone.

   The corpus has ten organisms and the pool one query per organism, so
   a run's queries cover ten motifs. The primary answers on two domains:
   a query then takes about 0.3 s, and a run holds 5 rounds and 50 timed
   queries at 15 s. With one domain and 20 timed queries the median moved
   by a quarter from run to run, mostly with the load of the machine
   (one seed read 509–647 ms over five runs). *)

let ingest_graphs = 200
let ingest_organisms = 10
let ingest_pool = 10
let batch = 10
let rounds seconds = max 2 (seconds / 3)

let wait_until ?(timeout_s = 60.) what f =
  let deadline = now () +. timeout_s in
  while (not (f ())) && now () < deadline do
    Unix.sleepf 0.01
  done;
  if not (f ()) then failwith (Printf.sprintf "timed out waiting for %s" what)

let ingest ~psst ~seed ~seconds ~trace ~dir =
  let o = create () in
  let t_setup = now () in
  let ds = corpus ~organisms:ingest_organisms ~seed ingest_graphs in
  let nrounds = rounds seconds in
  let fresh =
    (Generator.generate
       { ds.Generator.params with num_graphs = nrounds * batch; seed = seed + 1_000_003 })
      .graphs
  in
  let corpus_path = Filename.concat dir "corpus.pgdb" in
  Pgraph_io.save_binary corpus_path ds.graphs;
  let db0, index_layers = build_index ~traced:trace ~domains:2 ds.graphs in
  let pdir = Filename.concat dir "p" and sdir = Filename.concat dir "s" in
  Unix.mkdir pdir 0o755;
  Unix.mkdir sdir 0o755;
  let pbase = Filename.concat pdir "base.psst" and sbase = Filename.concat sdir "base.psst" in
  let (), save_s = time (fun () -> Query.save_database pbase db0) in
  copy_file pbase sbase;
  let psock = Filename.concat dir "p.sock" and ssock = Filename.concat dir "s.sock" in
  let primary =
    serve ~psst ~dir "primary"
      [ "--input"; corpus_path; "--index"; pbase; "--socket"; psock; "--domains"; "2" ]
  in
  Procs.wait_ready primary (unix psock);
  let standby =
    serve ~psst ~dir "standby"
      [ "--input"; corpus_path; "--index"; sbase; "--socket"; ssock; "--domains"; "1";
        "--standby-of"; "unix:" ^ psock ]
  in
  Procs.wait_ready standby (unix ssock);
  wait_until "the standby's subscription" (fun () ->
      counter (registry (unix psock)) "replica.subscribes" >= 1.);
  let pool = motif_pool ds (Psst_util.Prng.make (seed + 777)) ~size:ingest_pool in
  let c = connect (unix psock) in
  let setup_s = now () -. t_setup in
  let before = registry (unix psock) in
  let acks = ref [] and lat = ref [] in
  let answers = Array.make_matrix nrounds ingest_pool [] in
  let last_stats = Array.make ingest_pool None in
  for r = 0 to nrounds - 1 do
    let graphs = Array.sub fresh (r * batch) batch in
    o.attempted <- o.attempted + 1;
    let res, dt = time (fun () -> Psst_client.add_graphs ~token:(Printf.sprintf "round-%d" r) c graphs) in
    (match res with
    | Ok ack when ack.Psst_ingest.base = ingest_graphs + (r * batch) && ack.count = batch ->
      acks := dt :: !acks
    | Ok _ -> o.failed <- o.failed + 1; note o (Printf.sprintf "round %d: ack names the wrong ids" r)
    | Error (code, m) ->
      o.failed <- o.failed + 1;
      note o (Printf.sprintf "round %d: ingest rejected [%s] %s" r (Psst_proto.error_code_name code) m));
    Array.iteri
      (fun k q ->
        o.attempted <- o.attempted + 1;
        let res, dt = time (fun () -> ask c ((r * 1000) + k) q) in
        match res with
        | Ok (a, stats) ->
          answers.(r).(k) <- a;
          last_stats.(k) <- Some stats;
          if stats_balance stats then lat := dt :: !lat
          else begin
            o.failed <- o.failed + 1;
            note o (Printf.sprintf "round %d, query %d: pruning counters do not add up" r k)
          end
        | Error m ->
          o.failed <- o.failed + 1;
          note o (Printf.sprintf "round %d, query %d: %s" r k m))
      pool
  done;
  let after = registry (unix psock) in
  let client_peak = Procs.self_peak_rss_mib () in
  Psst_client.close c;
  wait_until "the standby to apply every batch" (fun () ->
      let s = connect (unix ssock) in
      Fun.protect ~finally:(fun () -> Psst_client.close s) (fun () ->
          (Psst_client.health s).Psst_proto.epoch >= nrounds));
  let peak = Procs.peak_rss_mib primary +. Procs.peak_rss_mib standby in
  add o "rss.servers_mb" peak;
  List.iter Procs.stop [ standby; primary ];
  (* The chains must be byte-identical, and reloading the primary's
     store must return every acked graph and agree with the last round. *)
  let delta_bytes = ref 0 in
  for seq = 1 to nrounds do
    let pf = Psst_ingest.delta_path pbase seq and sf = Psst_ingest.delta_path sbase seq in
    if not (Sys.file_exists pf && Sys.file_exists sf && Json.read_file pf = Json.read_file sf)
    then fail_run o (Printf.sprintf "delta %d differs between primary and standby" seq)
    else delta_bytes := !delta_bytes + Procs.file_size pf
  done;
  let db, _ = Psst_ingest.load pbase in
  let added = Corpus.length db.Query.graphs - ingest_graphs in
  if
    added <> nrounds * batch
    || Pgraph_io.db_fingerprint (Corpus.to_array (Corpus.sub db.graphs ~base:ingest_graphs ~count:added))
       <> Pgraph_io.db_fingerprint fresh
  then fail_run o "reloading the store does not return every acked graph";
  (* A graph's verdict never changes once it is in the database: at
     every epoch the verdicts on base graphs equal those of [Query.run]
     on the base database. A query that breaks this fails. *)
  let below_base l = List.filter (fun g -> g < ingest_graphs) l in
  Array.iteri
    (fun k q ->
      let base = (Query.run ~domains:2 db0 q config).answers in
      for r = 0 to nrounds - 1 do
        if below_base answers.(r).(k) <> base then begin
          o.failed <- o.failed + 1;
          note o (Printf.sprintf "round %d, query %d: verdicts on base graphs changed" r k)
        end
      done)
    pool;
  let last = answers.(nrounds - 1) in
  let replay = if trace then Some (Replay.create ()) else None in
  let rng = Random.State.make [| seed; 17 |] in
  let exact = ref 0 in
  Array.iteri
    (fun k q ->
      let what = Printf.sprintf "query %d" k in
      if offline_answers o ?replay ~what ~domains:2 db q <> last.(k) then
        fail_run o (Printf.sprintf "query %d: served answers differ from Query.run" k);
      let ok, n = oracle_check o ~what db q last.(k) rng in
      exact := !exact + n;
      if not ok then o.correct <- false)
    pool;
  require_exact_checks o !exact;
  let lat = !lat in
  add o "setup_s" setup_s;
  add o "queries_per_s" (float_of_int (List.length lat) /. List.fold_left ( +. ) 0. lat);
  add o "query_p50_ms" (1000. *. Stats.median lat);
  add o "ingest_ack_p50_ms" (1000. *. Stats.median !acks);
  add o "index_bytes_per_graph" (float_of_int (Procs.file_size pbase) /. float_of_int ingest_graphs);
  add o "delta_bytes_per_graph" (float_of_int !delta_bytes /. float_of_int (nrounds * batch));
  add o "peak_rss_mb" (peak +. client_peak);
  add o "oracle.exact_checked" (float_of_int !exact);
  if trace then begin
    let apply_ms = hist_mean_ms before after "ingest.apply_s" in
    o.metrics <- o.metrics @ index_layers;
    add o "index.save_s" save_s;
    let _, load_s = time (fun () -> Query.load_database pbase) in
    add o "index.load_s" load_s;
    add o "index.pmi_entries" (float_of_int (Pmi.filled_entries db0.Query.pmi));
    Option.iter (fun acc -> o.metrics <- o.metrics @ Replay.metrics acc) replay;
    o.metrics <- o.metrics @ cache_metrics [ (before, after) ];
    o.metrics <-
      o.metrics
      @ wire_metrics
          (List.mapi run_request (Array.to_list pool))
          (List.init ingest_pool (fun id ->
               Psst_proto.Answer
                 { id; answers = last.(id); stats = Option.get last_stats.(id) }));
    let wait_ms = hist_mean_ms before after "server.queue.wait_s" in
    add o "server.queue_wait_ms" wait_ms;
    add o "server.exec_ms" (hist_mean_ms before after "server.latency_s" -. wait_ms);
    add o "wire.overhead_ms"
      ((1000. *. Stats.mean lat) -. hist_mean_ms before after "server.latency_s");
    add o "ingest.apply_ms" apply_ms;
    add o "ingest.epochs" (counter_delta before after "ingest.batches");
    add o "replica.ack_wait_ms" ((1000. *. Stats.mean !acks) -. apply_ms);
    add o "replica.frames" (counter_delta before after "replica.frames")
  end;
  o

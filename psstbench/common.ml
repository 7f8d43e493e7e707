(* What every workload shares: its outcome record, the corpus and query
   pools, the index build (timed per layer when traced), the wire codec
   timings and the servers' metric registries. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable notes : string list;  (** why an operation failed or a check broke *)
  mutable metrics : (string * float) list;
}

let create () = { attempted = 0; failed = 0; correct = true; notes = []; metrics = [] }
let add o name v = o.metrics <- o.metrics @ [ (name, v) ]
let note o msg = if List.length o.notes < 20 then o.notes <- o.notes @ [ msg ]
let fail_run o msg = o.correct <- false; note o msg

(* Every workload answers with the paper's defaults: ε = 0.5, δ = 2,
   OPT-SSPBound, certified bounds, SMP verification. *)
let config = Query.default_config
let query_edges = 8

(* The Fig 9 corpus of the experiment harness at [n] graphs, with
   [organisms] organisms (5 in Fig 9). *)
let corpus ?(organisms = 5) ~seed n =
  Generator.generate
    { (Experiments.dataset_params { Experiments.db_size = n; queries_per_point = 0; seed })
      with num_organisms = organisms }

let organism_view (ds : Generator.t) o =
  let ids = Array.of_list (Generator.organism_members ds o) in
  let pick a = Array.map (fun i -> a.(i)) ids in
  { ds with Generator.graphs = pick ds.graphs; organisms = pick ds.organisms; grafts = pick ds.grafts }

(* [size] queries of [query_edges] edges grown inside organism motifs,
   organisms taken in turn: each matches its whole organism, so
   verification does most of the work and every pool carries the same
   mix of organisms whatever the seed. Presentations are kept distinct
   while a bounded number of draws allows: a motif has only a few. *)
let motif_pool ds rng ~size =
  let views = Array.init ds.Generator.params.num_organisms (organism_view ds) in
  let seen = Hashtbl.create 16 in
  Array.init size (fun i ->
      let rec draw tries =
        let q, _ =
          Generator.extract_query ~from_motif:true rng
            views.(i mod Array.length views)
            ~edges:query_edges
        in
        let key = Lgraph.to_string q in
        if Hashtbl.mem seen key && tries < 20 then draw (tries + 1)
        else (Hashtbl.replace seen key (); q)
      in
      draw 0)

(* [Query.index_database] with the Fig 9 mining parameters; when
   [traced], the same steps called one by one so that each is timed. *)
let build_index ~traced ~domains graphs =
  let mining = Experiments.mining_params in
  if not traced then (Query.index_database ~mining ~domains graphs, [])
  else
    let skeletons = Array.map Pgraph.skeleton graphs in
    let features, mine_s = time (fun () -> Selection.select skeletons mining) in
    let structural, structural_s =
      time (fun () -> Structural.build skeletons features ~emb_cap:64)
    in
    let pmi, pmi_s = time (fun () -> Pmi.build ~domains graphs features) in
    ( { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 },
      [ ("index.mine_s", mine_s); ("index.structural_s", structural_s);
        ("index.pmi_s", pmi_s) ] )

(* Per-frame cost of the wire codec on the workload's own frames:
   encode and decode every request and reply [reps] times. *)
let wire_metrics requests replies =
  let frames_req = List.map (fun r -> Psst_proto.encode_request r) requests in
  let frames_rep = List.map (fun r -> Psst_proto.encode_reply r) replies in
  let nframes = float_of_int (List.length requests + List.length replies) in
  let reps = 50 in
  let (), enc =
    time (fun () ->
        for _ = 1 to reps do
          List.iter (fun r -> ignore (Psst_proto.encode_request r)) requests;
          List.iter (fun r -> ignore (Psst_proto.encode_reply r)) replies
        done)
  in
  let (), dec =
    time (fun () ->
        for _ = 1 to reps do
          List.iter (fun f -> ignore (Psst_proto.request_of_string f)) frames_req;
          List.iter (fun f -> ignore (Psst_proto.reply_of_string f)) frames_rep
        done)
  in
  let mean_len fs =
    float_of_int (List.fold_left (fun a f -> a + String.length f) 0 fs)
    /. float_of_int (max 1 (List.length fs))
  in
  [ ("wire.encode_us", 1e6 *. enc /. (float_of_int reps *. nframes));
    ("wire.decode_us", 1e6 *. dec /. (float_of_int reps *. nframes));
    ("wire.request_bytes", mean_len frames_req);
    ("wire.reply_bytes", mean_len frames_rep) ]

let run_request id q = Psst_proto.Run { id; query = q; config }

let answer_reply id (o : Query.outcome) =
  Psst_proto.Answer { id; answers = o.answers; stats = Psst_proto.stats_of_query o.stats }

(* accepted + pruned + undecided must account for every structural
   survivor. *)
let stats_balance (s : Psst_proto.query_stats) =
  s.accepted_by_bounds + s.pruned_by_bounds + s.prob_candidates = s.structural_candidates

(* --- server registries (Get_stats) --- *)

let registry endpoint =
  let c = Psst_client.connect ~connect_timeout_ms:5000. endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () -> Json.parse (Psst_client.stats_json c))

let counter j name =
  match Option.bind (Json.member "counters" j) (Json.num_member name) with
  | Some v -> v
  | None -> 0.

let histogram j name =
  match Option.bind (Json.member "histograms" j) (Json.member name) with
  | Some h ->
    ( Option.value ~default:0. (Json.num_member "count" h),
      Option.value ~default:0. (Json.num_member "sum" h) )
  | None -> (0., 0.)

(* Change of a histogram between two registry dumps: (count, sum). *)
let hist_delta before after name =
  let c0, s0 = histogram before name and c1, s1 = histogram after name in
  (c1 -. c0, s1 -. s0)

let hist_mean_ms before after name =
  let c, s = hist_delta before after name in
  if c > 0. then 1000. *. s /. c else 0.

let counter_delta before after name = counter after name -. counter before name

(* cache.* over the registries of the processes holding a cache. *)
let cache_metrics pairs =
  let sum name = List.fold_left (fun a (b, c) -> a +. counter_delta b c name) 0. pairs in
  let hit = sum "cache.hit" and miss = sum "cache.miss" in
  [ ("cache.hit", hit); ("cache.miss", miss); ("cache.flush", sum "cache.flush");
    ("cache.hit_ratio", if hit +. miss > 0. then hit /. (hit +. miss) else 0.) ]

let no_cache_metrics =
  [ ("cache.hit", 0.); ("cache.miss", 0.); ("cache.flush", 0.); ("cache.hit_ratio", 0.) ]

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left (fun a f -> a + Procs.file_size (Filename.concat dir f)) 0 (Sys.readdir dir)

let copy_file src dst =
  let s = Json.read_file src in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* [Query.run]'s answers for [q]. When traced, the per-layer replay runs
   beside it and must return the same answers. *)
let offline_answers o ?replay ~what ~domains db q =
  let answers = (Query.run ~domains db q config).answers in
  Option.iter
    (fun acc ->
      if Replay.run acc db q config <> answers then
        fail_run o (what ^ ": the traced replay differs from Query.run"))
    replay;
  answers

(* The oracle on one answer set: whether it agrees, and how many exact
   SSP pairs it checked. *)
let oracle_check o ~what db q answers rng =
  let r = Oracle.check db q config answers ~samples:4 rng in
  List.iter (fun m -> note o (Printf.sprintf "%s: %s" what m)) r.Oracle.mismatches;
  (r.Oracle.mismatches = [], r.Oracle.exact_checked)

(* A run whose exact-SSP oracle checked no pair has not checked its
   probabilities. *)
let require_exact_checks o n =
  if n = 0 then fail_run o "the exact-SSP oracle found no pair to check"

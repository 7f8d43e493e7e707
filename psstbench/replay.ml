(* The traced path: one query replayed through the pipeline's public
   calls in [Query.run]'s order, with every layer timed and counted from
   the benchmark's side — relax, structural pruning, probabilistic
   pruning (prepare, per-candidate evaluate on [Query.prune_stream]),
   then embedding enumeration, Karp–Luby preparation and sampling on
   [Prng.stream ~seed gid]. Nothing is added inside the program. *)

type t = {
  mutable queries : int;
  mutable relax_s : float;
  mutable relax_patterns : int;
  mutable structural_s : float;
  mutable survivors : int;
  mutable prepare_s : float;
  mutable evaluate_s : float;
  mutable pruned : int;
  mutable accepted : int;
  mutable undecided : int;
  mutable embed_s : float;
  mutable events : int;
  mutable vprepare_s : float;
  mutable sample_s : float;
  mutable samples : int;
  mutable sample_minor_words : float;
  mutable minor_words : float;
  mutable major_collections : int;
}

let create () =
  {
    queries = 0; relax_s = 0.; relax_patterns = 0; structural_s = 0.;
    survivors = 0; prepare_s = 0.; evaluate_s = 0.; pruned = 0; accepted = 0;
    undecided = 0; embed_s = 0.; events = 0; vprepare_s = 0.; sample_s = 0.;
    samples = 0; sample_minor_words = 0.; minor_words = 0.; major_collections = 0;
  }

let now = Unix.gettimeofday

(* Replays [q] and returns its answer set (sorted global ids). *)
let run acc (db : Query.database) q (config : Query.config) =
  let vc =
    match config.verifier with
    | `Smp vc -> vc
    | `Exact -> invalid_arg "Replay.run: the benchmark replays the SMP verifier"
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let relaxed, _ = Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta in
  let t1 = now () in
  let survivors =
    Structural.candidates db.structural ~skeleton:(Corpus.skeleton db.graphs) q
      ~delta:config.delta
  in
  let t2 = now () in
  let prepared = Pruning.prepare db.pmi ~relaxed in
  let t3 = now () in
  let accepted = ref [] and candidates = ref [] in
  List.iter
    (fun gi ->
      let rng = Query.prune_stream ~seed:config.seed (Query.global db gi) in
      let r =
        Pruning.evaluate ~certified:config.certified rng db.pmi prepared ~graph:gi
          ~epsilon:config.epsilon ~mode:config.mode
      in
      match r.Pruning.decision with
      | `Accepted -> accepted := gi :: !accepted; acc.accepted <- acc.accepted + 1
      | `Candidate -> candidates := gi :: !candidates; acc.undecided <- acc.undecided + 1
      | `Pruned -> acc.pruned <- acc.pruned + 1)
    survivors;
  let t4 = now () in
  let verified =
    List.filter
      (fun gi ->
        let g = Corpus.get db.graphs gi in
        let rng = Psst_util.Prng.stream ~seed:config.seed (Query.global db gi) in
        let a = now () in
        let sets = Verify.embedding_sets ~config:vc g relaxed in
        let b = now () in
        let prep = Verify.smp_prepare g sets in
        let c = now () in
        let w0 = Gc.minor_words () in
        let stop_epsilon = if vc.adaptive then Some config.epsilon else None in
        let r = Verify.smp_run ~config:vc ?stop_epsilon rng prep in
        let w1 = Gc.minor_words () in
        let d = now () in
        acc.embed_s <- acc.embed_s +. (b -. a);
        acc.events <- acc.events + List.length sets;
        acc.vprepare_s <- acc.vprepare_s +. (c -. b);
        acc.sample_s <- acc.sample_s +. (d -. c);
        acc.samples <- acc.samples + r.Verify.samples;
        acc.sample_minor_words <- acc.sample_minor_words +. (w1 -. w0);
        r.Verify.value >= config.epsilon)
      (List.rev !candidates)
  in
  let gc1 = Gc.quick_stat () in
  acc.queries <- acc.queries + 1;
  acc.relax_s <- acc.relax_s +. (t1 -. t0);
  acc.relax_patterns <- acc.relax_patterns + List.length relaxed;
  acc.structural_s <- acc.structural_s +. (t2 -. t1);
  acc.survivors <- acc.survivors + List.length survivors;
  acc.prepare_s <- acc.prepare_s +. (t3 -. t2);
  acc.evaluate_s <- acc.evaluate_s +. (t4 -. t3);
  acc.minor_words <- acc.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  acc.major_collections <-
    acc.major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  List.sort compare (List.map (Query.global db) (!accepted @ verified))

(* Per-query means of times and counts; per-sample cost of the sampler. *)
let metrics acc =
  let q = float_of_int (max 1 acc.queries) in
  let per_q_ms s = 1000. *. s /. q and per_q n = float_of_int n /. q in
  let samples = float_of_int (max 1 acc.samples) in
  [
    ("relax.ms", per_q_ms acc.relax_s);
    ("relax.patterns", per_q acc.relax_patterns);
    ("structural.ms", per_q_ms acc.structural_s);
    ("structural.survivors", per_q acc.survivors);
    ("pruning.prepare_ms", per_q_ms acc.prepare_s);
    ("pruning.evaluate_ms", per_q_ms acc.evaluate_s);
    ("pruning.pruned", per_q acc.pruned);
    ("pruning.accepted", per_q acc.accepted);
    ("pruning.undecided", per_q acc.undecided);
    ("verify.embed_ms", per_q_ms acc.embed_s);
    ("verify.events", per_q acc.events);
    ("verify.prepare_ms", per_q_ms acc.vprepare_s);
    ("verify.sample_ms", per_q_ms acc.sample_s);
    ("verify.samples", per_q acc.samples);
    ("verify.ns_per_sample", 1e9 *. acc.sample_s /. samples);
    ("verify.minor_words_per_sample", acc.sample_minor_words /. samples);
    ("gc.minor_words_per_query", acc.minor_words /. q);
    ("gc.major_collections", float_of_int acc.major_collections);
  ]

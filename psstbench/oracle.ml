(* Checks that do not reuse the pipeline's own answer path.

   - Distance: every answered graph must lie within subgraph distance
     [delta] of the query in its skeleton. Decided with [Ullmann]
     (the pipeline matches with VF2): [dis q g <= delta] iff deleting
     some [delta] edges of [q] (and its then-isolated vertices) leaves a
     pattern that embeds in [g].
   - Exact SSP: on a seeded sample of (query, graph) pairs the exact
     subgraph-similarity probability is computed by enumerating every
     possible world ([Verify.exact_naive]). Outside a band of ±3τ around
     ε it must agree with the answer set: at or above ε + 3τ the graph
     is an answer, below ε − 3τ it is not. Enumeration doubles with
     every uncertain edge, so pairs are drawn among graphs with at most
     [max_uncertain] of them (about 0.1 s each; the Fig 9 corpus has
     12–25), and a run with no such pair at all fails its check. *)

let max_uncertain = 16

let within_distance q g ~delta =
  let m = Lgraph.num_edges q in
  delta >= m
  || List.exists
       (fun del -> Ullmann.exists (fst (Lgraph.drop_isolated (Lgraph.delete_edges q del))) g)
       (Psst_util.Combin.combinations delta (List.init m Fun.id))

type report = { distance_checked : int; exact_checked : int; mismatches : string list }

(* [check db q config answers ~samples rng] — [answers] are global ids. *)
let check (db : Query.database) q (config : Query.config) answers ~samples rng =
  let mismatches = ref [] in
  let local gid = gid - db.base in
  List.iter
    (fun gid ->
      if not (within_distance q (Corpus.skeleton db.graphs (local gid)) ~delta:config.delta)
      then
        mismatches :=
          Printf.sprintf "graph %d answered but its distance exceeds %d" gid config.delta
          :: !mismatches)
    answers;
  let tau = match config.verifier with `Smp vc -> vc.Verify.tau | `Exact -> 0. in
  let relaxed, _ = Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta in
  let n = Corpus.length db.graphs in
  let enumerable gi = List.length (Pgraph.uncertain_edges (Corpus.get db.graphs gi)) <= max_uncertain in
  let answered = Array.of_list (List.filter (fun gid -> enumerable (local gid)) answers) in
  let others =
    List.init n (fun gi -> gi)
    |> List.filter (fun gi ->
           (not (List.mem (db.base + gi) answers))
           && Distance.lower_bound q (Corpus.skeleton db.graphs gi) <= config.delta
           && enumerable gi)
    |> Array.of_list
  in
  (* Distinct graphs: up to half of the sample from the answers, the
     rest from the others. *)
  let pick a k =
    let a = Array.copy a in
    let n = Array.length a in
    for i = 0 to min k n - 1 do
      let j = i + Random.State.int rng (n - i) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list (Array.sub a 0 (min k n))
  in
  let from_answers = pick answered ((samples + 1) / 2) in
  let pairs =
    from_answers
    @ List.map (fun gi -> db.base + gi) (pick others (samples - List.length from_answers))
  in
  List.iter
    (fun gid ->
      let exact = Verify.exact_naive (Corpus.get db.graphs (local gid)) relaxed in
      let answered = List.mem gid answers in
      if exact >= config.epsilon +. (3. *. tau) && not answered then
        mismatches :=
          Printf.sprintf "graph %d has exact SSP %.3f but is not answered" gid exact
          :: !mismatches
      else if exact < config.epsilon -. (3. *. tau) && answered then
        mismatches :=
          Printf.sprintf "graph %d has exact SSP %.3f but is answered" gid exact
          :: !mismatches)
    pairs;
  { distance_checked = List.length answers; exact_checked = List.length pairs;
    mismatches = List.rev !mismatches }

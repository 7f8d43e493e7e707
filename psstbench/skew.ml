(* The seeded, skewed request sequence of the served workloads: request
   [i] names a pool query drawn with probability proportional to
   [1 / rank^s] (Zipf), where the rank order of the pool is itself a
   seeded permutation. The same (seed, pool, s, length) always yields the
   same sequence, independent of how fast the requests are answered. *)

let sequence ~seed ~pool ~s ~length =
  if pool < 1 then invalid_arg "Skew.sequence: empty pool";
  let rng = Random.State.make [| 0x5eed; seed |] in
  let order = Array.init pool Fun.id in
  for i = pool - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let cdf = Array.make pool 0. in
  let acc = ref 0. in
  for r = 0 to pool - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) s);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  Array.init length (fun _ ->
      let u = Random.State.float rng total in
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) > u then find lo mid else find (mid + 1) hi
      in
      order.(find 0 (pool - 1)))

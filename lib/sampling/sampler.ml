module Rng = Gus_util.Rng
module Hashing = Gus_util.Hashing
module Pool = Gus_util.Pool
module Vec = Gus_util.Vec
open Gus_relational

type t =
  | Bernoulli of float
  | Wor of int
  | Wr of int
  | Block of { rows_per_block : int; p : float }
  | Hash_bernoulli of { seed : int; p : float }

let pp ppf = function
  | Bernoulli p -> Format.fprintf ppf "Bernoulli(%g)" p
  | Wor n -> Format.fprintf ppf "WOR(%d)" n
  | Wr n -> Format.fprintf ppf "WR(%d)" n
  | Block { rows_per_block; p } -> Format.fprintf ppf "Block(%d,%g)" rows_per_block p
  | Hash_bernoulli { seed; p } -> Format.fprintf ppf "HashBernoulli(seed=%d,%g)" seed p

let to_string s = Format.asprintf "%a" pp s

let check_p p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Sampler: probability %g not in [0,1]" p)

let validate = function
  | Bernoulli p -> check_p p
  | Wor n | Wr n ->
      if n < 0 then invalid_arg "Sampler: negative sample size"
  | Block { rows_per_block; p } ->
      if rows_per_block <= 0 then invalid_arg "Sampler: block size must be positive";
      check_p p
  | Hash_bernoulli { p; _ } -> check_p p

let copy_shape ?(suffix = "sample") rel =
  Relation.derived
    ~name:(Printf.sprintf "%s(%s)" suffix rel.Relation.name)
    rel.Relation.schema rel.Relation.lineage_schema

let require_base which rel =
  if Array.length rel.Relation.lineage_schema <> 1 then
    invalid_arg
      (Printf.sprintf "Sampler.apply: %s requires a base relation, got lineage %s"
         which
         (String.concat "," (Array.to_list rel.Relation.lineage_schema)))

let uses_rng = function
  | Bernoulli _ | Wor _ | Wr _ | Block _ -> true
  | Hash_bernoulli _ -> false

let per_tuple = function
  | Bernoulli _ | Hash_bernoulli _ -> true
  | Wor _ | Wr _ | Block _ -> false

(* Row-block grid for the pooled Bernoulli path.  The grid is a property
   of the *input*, not of the pool: block [b] always covers rows
   [b*4096, (b+1)*4096) and always draws from the [b]-th derived child
   stream, so the sample is identical for every pool size. *)
let bernoulli_rows_per_stream = 4096

let sampled_name ?(suffix = "sample") rel =
  Printf.sprintf "%s(%s)" suffix rel.Relation.name

(* Columnar outputs: every sampler below first materializes the kept row
   indices — drawing from the RNG in exactly the order the row path does
   — then gathers data and lineage columns in one pass.  The samples are
   therefore bit-identical to the row path for the same seed; only the
   storage of the result differs. *)

let apply_inner ?pool ?(par_threshold = Pool.default_par_threshold) t rng rel =
  validate t;
  (match t with
  | Block _ -> require_base "block sampling" rel
  | Hash_bernoulli _ -> require_base "hash-Bernoulli sampling" rel
  | Bernoulli _ | Wor _ | Wr _ -> ());
  match (t, Relation.store rel) with
  | Bernoulli p, store -> (
      let n = Relation.cardinality rel in
      match (pool, store) with
      | Some pl, _ when Pool.is_live pl && n >= par_threshold -> (
          (* Block-wise draws: one [Rng.derive]d child stream per fixed
             4096-row block, blocks fanned across lanes and stitched in
             block order.  Deterministic in (seed, input) and independent
             of the lane count — but a *different* sample than the
             sequential single-stream path, which is why the pooled path
             is opt-in per call rather than a drop-in default. *)
          let master = Rng.split rng in
          let nblocks = (n + bernoulli_rows_per_stream - 1) / bernoulli_rows_per_stream in
          match store with
          | Relation.Cols c ->
              let bufs =
                Array.init nblocks (fun b ->
                    let lo = b * bernoulli_rows_per_stream in
                    Array.make (max 1 (min n (lo + bernoulli_rows_per_stream) - lo)) 0)
              in
              let counts = Array.make (max 1 nblocks) 0 in
              Pool.run_chunks pl ~lo:0 ~hi:nblocks (fun blo bhi ->
                  for b = blo to bhi - 1 do
                    let brng = Rng.derive master b in
                    let buf = bufs.(b) in
                    let m = ref 0 in
                    let lo = b * bernoulli_rows_per_stream in
                    let hi = min n (lo + bernoulli_rows_per_stream) in
                    for i = lo to hi - 1 do
                      if Rng.bernoulli brng p then begin
                        buf.(!m) <- i;
                        incr m
                      end
                    done;
                    counts.(b) <- !m
                  done);
              let total = Array.fold_left ( + ) 0 counts in
              let idx = Array.make (max 1 total) 0 in
              let off = ref 0 in
              Array.iteri
                (fun b buf ->
                  Array.blit buf 0 idx !off counts.(b);
                  off := !off + counts.(b))
                bufs;
              Relation.gather_rows ~name:(sampled_name rel) rel c idx total
          | Relation.Rows _ ->
              let out = copy_shape rel in
              let outs = Array.init nblocks (fun _ -> Vec.create ()) in
              Pool.run_chunks pl ~lo:0 ~hi:nblocks (fun blo bhi ->
                  for b = blo to bhi - 1 do
                    let brng = Rng.derive master b in
                    let dst = outs.(b) in
                    let lo = b * bernoulli_rows_per_stream in
                    let hi = min n (lo + bernoulli_rows_per_stream) in
                    for i = lo to hi - 1 do
                      let tup = Relation.tuple rel i in
                      if Rng.bernoulli brng p then Vec.push dst tup
                    done
                  done);
              Array.iter (fun v -> Vec.iter (Relation.append_tuple out) v) outs;
              out)
      | _, Relation.Cols c ->
          let idx = Array.make (max 1 n) 0 in
          let m = ref 0 in
          for i = 0 to n - 1 do
            if Rng.bernoulli rng p then begin
              idx.(!m) <- i;
              incr m
            end
          done;
          Relation.gather_rows ~name:(sampled_name rel) rel c idx !m
      | _, Relation.Rows _ ->
          let out = copy_shape rel in
          Relation.iter
            (fun tup -> if Rng.bernoulli rng p then Relation.append_tuple out tup)
            rel;
          out)
  | Wor n, store -> (
      let card = Relation.cardinality rel in
      let k = min n card in
      let idx = Rng.sample_without_replacement rng k card in
      Array.sort compare idx;
      match store with
      | Relation.Cols c -> Relation.gather_rows ~name:(sampled_name rel) rel c idx k
      | Relation.Rows _ ->
          let out = copy_shape rel in
          Array.iter (fun i -> Relation.append_tuple out (Relation.tuple rel i)) idx;
          out)
  | Wr n, store -> (
      let card = Relation.cardinality rel in
      let idx =
        if card = 0 then [||]
        else begin
          (* Explicit loop: the n draws must come out of [rng] in row
             order, matching the seed path exactly. *)
          let a = Array.make (max 1 n) 0 in
          for j = 0 to n - 1 do
            a.(j) <- Rng.int rng card
          done;
          Array.sub a 0 n
        end
      in
      match store with
      | Relation.Cols c ->
          Relation.gather_rows ~name:(sampled_name rel) rel c idx (Array.length idx)
      | Relation.Rows _ ->
          let out = copy_shape rel in
          Array.iter (fun i -> Relation.append_tuple out (Relation.tuple rel i)) idx;
          out)
  | Block { rows_per_block; p }, store -> (
      (* Lineage is rewritten to block granularity: the filter decision is
         per block, and two rows of one kept block are *not* independent, so
         the GUS analysis must treat the block as the sampled unit. *)
      let card = Relation.cardinality rel in
      let nblocks = (card + rows_per_block - 1) / rows_per_block in
      let keep = Array.init nblocks (fun _ -> Rng.bernoulli rng p) in
      match store with
      | Relation.Cols c ->
          let idx = Array.make (max 1 card) 0 in
          let blocks = Array.make (max 1 card) 0 in
          let m = ref 0 in
          for i = 0 to card - 1 do
            let block = Relation.lineage_id c ~slot:0 i / rows_per_block in
            if keep.(block) then begin
              idx.(!m) <- i;
              blocks.(!m) <- block;
              incr m
            end
          done;
          let ccols =
            Array.map (fun col -> Column.gather col idx !m) c.Relation.ccols
          in
          let clineage = Relation.Explicit [| Column.of_int_array blocks !m |] in
          Relation.derived_cols
            ~name:(sampled_name ~suffix:"blocksample" rel)
            rel.Relation.schema rel.Relation.lineage_schema
            { Relation.cn = !m; ccols; clineage }
      | Relation.Rows _ ->
          let out = copy_shape ~suffix:"blocksample" rel in
          Relation.iter
            (fun tup ->
              let row = tup.Tuple.lineage.(0) in
              let block = row / rows_per_block in
              if keep.(block) then begin
                let lineage = Array.copy tup.Tuple.lineage in
                lineage.(0) <- block;
                Relation.append_tuple out { tup with Tuple.lineage }
              end)
            rel;
          out)
  | Hash_bernoulli { seed; p }, store -> (
      (* Decisions are a pure function of (seed, lineage id), so the
         chunk-parallel scan is output-identical to the sequential one. *)
      match store with
      | Relation.Cols c ->
          let keep i = Hashing.prf_float ~seed (Relation.lineage_id c ~slot:0 i) < p in
          let idx, count =
            Ops.select_indices ?pool ~par_threshold keep c.Relation.cn
          in
          Relation.gather_rows
            ~name:(sampled_name ~suffix:"hashsample" rel)
            rel c idx count
      | Relation.Rows _ ->
          let out = copy_shape ~suffix:"hashsample" rel in
          Ops.chunked_scan ?pool ~par_threshold rel out (fun push tup ->
              let id = tup.Tuple.lineage.(0) in
              if Hashing.prf_float ~seed id < p then push tup);
          out)

let m_rows_in = Gus_obs.Metrics.counter "sampler.rows_in"
let m_rows_out = Gus_obs.Metrics.counter "sampler.rows_out"
let m_draws = Gus_obs.Metrics.counter "sampler.bernoulli.draws"

let account t ~rows_in ~rows_out =
  (* Draw counts are derived arithmetically (never by counting inside the
     sampling loops), so instrumentation cannot perturb the RNG stream. *)
  if Gus_obs.Metrics.enabled () then begin
    Gus_obs.Metrics.add m_rows_in rows_in;
    Gus_obs.Metrics.add m_rows_out rows_out;
    match t with
    | Bernoulli _ -> Gus_obs.Metrics.add m_draws rows_in
    | Block { rows_per_block; p = _ } ->
        Gus_obs.Metrics.add m_draws
          ((rows_in + rows_per_block - 1) / rows_per_block)
    | Wor _ | Wr _ | Hash_bernoulli _ -> ()
  end

let apply ?pool ?par_threshold t rng rel =
  let out = apply_inner ?pool ?par_threshold t rng rel in
  account t ~rows_in:(Relation.cardinality rel)
    ~rows_out:(Relation.cardinality out);
  out

let sampling_fraction t ~n =
  match t with
  | Bernoulli p -> p
  | Wor k | Wr k -> if n = 0 then 0.0 else Float.min 1.0 (float_of_int k /. float_of_int n)
  | Block { p; _ } -> p
  | Hash_bernoulli { p; _ } -> p

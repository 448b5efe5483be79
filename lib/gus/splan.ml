open Gus_relational
module Sampler = Gus_sampling.Sampler

type t =
  | Scan of string
  | Select of Expr.t * t
  | Project of (string * Expr.t) list * t
  | Equi_join of { left : t; right : t; left_key : Expr.t; right_key : Expr.t }
  | Theta_join of Expr.t * t * t
  | Cross of t * t
  | Distinct of t
  | Sample of Sampler.t * t
  | Union_samples of t * t

exception Union_lineage_mismatch of { left : string list; right : string list }

let scan name = Scan name
let select pred q = Select (pred, q)

let equi_join left right ~on:(lk, rk) =
  Equi_join { left; right; left_key = Expr.col lk; right_key = Expr.col rk }

let sample s q = Sample (s, q)

let rec lineage_schema = function
  | Scan name -> Lineage.schema_of name
  | Select (_, q) | Project (_, q) | Sample (_, q) | Distinct q ->
      lineage_schema q
  | Equi_join { left; right; _ } ->
      Lineage.schema_concat (lineage_schema left) (lineage_schema right)
  | Theta_join (_, l, r) | Cross (l, r) ->
      Lineage.schema_concat (lineage_schema l) (lineage_schema r)
  | Union_samples (l, r) ->
      let sl = lineage_schema l and sr = lineage_schema r in
      if not (Lineage.schema_equal sl sr) then
        raise
          (Union_lineage_mismatch
             { left = Array.to_list sl; right = Array.to_list sr });
      sl

let rec strip_samples = function
  | Scan name -> Scan name
  | Select (p, q) -> Select (p, strip_samples q)
  | Project (fields, q) -> Project (fields, strip_samples q)
  | Equi_join { left; right; left_key; right_key } ->
      Equi_join
        { left = strip_samples left;
          right = strip_samples right;
          left_key;
          right_key }
  | Theta_join (p, l, r) -> Theta_join (p, strip_samples l, strip_samples r)
  | Cross (l, r) -> Cross (strip_samples l, strip_samples r)
  | Distinct q -> Distinct (strip_samples q)
  | Sample (_, q) -> strip_samples q
  | Union_samples (l, _) -> strip_samples l

let rec equal p q =
  match (p, q) with
  | Scan a, Scan b -> String.equal a b
  | Select (e1, q1), Select (e2, q2) -> e1 = e2 && equal q1 q2
  | Project (f1, q1), Project (f2, q2) -> f1 = f2 && equal q1 q2
  | Equi_join j1, Equi_join j2 ->
      j1.left_key = j2.left_key && j1.right_key = j2.right_key
      && equal j1.left j2.left && equal j1.right j2.right
  | Theta_join (e1, l1, r1), Theta_join (e2, l2, r2) ->
      e1 = e2 && equal l1 l2 && equal r1 r2
  | Cross (l1, r1), Cross (l2, r2) -> equal l1 l2 && equal r1 r2
  | Sample (s1, q1), Sample (s2, q2) -> s1 = s2 && equal q1 q2
  | Distinct q1, Distinct q2 -> equal q1 q2
  | Union_samples (l1, r1), Union_samples (l2, r2) -> equal l1 l2 && equal r1 r2
  | ( ( Scan _ | Select _ | Project _ | Equi_join _ | Theta_join _ | Cross _
      | Distinct _ | Sample _ | Union_samples _ ),
      _ ) ->
      false

let node_label = function
  | Scan name -> name
  | Select (e, _) -> Format.asprintf "select %a" Expr.pp e
  | Project (fields, _) ->
      Printf.sprintf "project %s" (String.concat "," (List.map fst fields))
  | Equi_join { left_key; right_key; _ } ->
      Format.asprintf "join %a = %a" Expr.pp left_key Expr.pp right_key
  | Theta_join (e, _, _) -> Format.asprintf "theta-join %a" Expr.pp e
  | Cross _ -> "cross"
  | Distinct _ -> "distinct"
  | Sample (s, _) -> Sampler.to_string s
  | Union_samples _ -> "union-samples"

let children = function
  | Scan _ -> []
  | Select (_, q) | Project (_, q) | Distinct q | Sample (_, q) -> [ q ]
  | Equi_join { left; right; _ } -> [ left; right ]
  | Theta_join (_, l, r) | Cross (l, r) | Union_samples (l, r) -> [ l; r ]

(* ------------------------------------------------------------------ *)
(* Execution: the one recursive walker.

   Binary nodes run their right child before their left.  The order is
   fixed so that a seed always draws the same sample (the journal replay
   and the pinned fixtures depend on it).  Trace spans and EXPLAIN
   profiles both hang off this recursion and neither consumes
   randomness, so a traced or profiled run is bit-identical to a plain
   one (test-enforced).  Profiling is an explicit mode, not flag-guarded:
   callers that pass [?profile] pay for the clock reads. *)

type node_profile = {
  np_path : int list;
  np_label : string;
  np_wall_ns : int;  (** inclusive of children *)
  np_rows_in : int;
  np_rows_out : int;
}

let exec ?pool ?profile db rng plan =
  let card = Relation.cardinality in
  let rec go path plan =
    let traced = Gus_obs.Trace.enabled () in
    let label =
      if traced || Option.is_some profile then node_label plan else ""
    in
    if traced then Gus_obs.Trace.enter label;
    let t0 = if Option.is_some profile then Gus_obs.Trace.now_ns () else 0 in
    match node path plan with
    | rel, rows_in ->
        if traced then
          Gus_obs.Trace.leave label
            ~args:[ ("rows_out", string_of_int (card rel)) ];
        Option.iter
          (fun hook ->
            hook
              { np_path = List.rev path;
                np_label = label;
                np_wall_ns = Gus_obs.Trace.now_ns () - t0;
                np_rows_in = rows_in;
                np_rows_out = card rel })
          profile;
        rel
    | exception e ->
        if traced then Gus_obs.Trace.leave label;
        raise e
  (* The node's output and the sum of its input cardinalities. *)
  and node path = function
    | Scan name ->
        let r = Database.find db name in
        (r, card r)
    | Select (pred, q) -> unary path q (Ops.select ?pool pred)
    | Project (fields, q) -> unary path q (Ops.project ?pool fields)
    | Distinct q -> unary path q Ops.distinct
    | Sample (s, q) -> unary path q (Sampler.apply ?pool s rng)
    | Equi_join { left; right; left_key; right_key } ->
        binary path left right (Ops.equi_join ~left_key ~right_key)
    | Theta_join (pred, l, r) -> binary path l r (Ops.theta_join pred)
    | Cross (l, r) -> binary path l r Ops.cross
    | Union_samples (l, r) -> binary path l r Ops.union_lineage
  and unary path q op =
    let c = go (0 :: path) q in
    (op c, card c)
  and binary path lq rq op =
    let r = go (1 :: path) rq in
    let l = go (0 :: path) lq in
    (op l r, card l + card r)
  in
  go [] plan

let exec_exact db q =
  (* No sampling remains, so the RNG is never consulted. *)
  exec db (Gus_util.Rng.create 0) (strip_samples q)

(* ------------------------------------------------------------------ *)
(* Streaming: the one suffix fold.

   A plan splits into a blocking [core] (joins, Distinct, the
   cardinality-dependent samplers) that must materialize, and a
   {e streamable suffix} of per-tuple stages above it — Select, Project,
   Bernoulli, Hash_bernoulli — through which the core's tuples are pushed
   one at a time without ever materializing the result relation.

   The split is RNG-faithful: it keeps at most ONE RNG-consuming sampler
   in the suffix.  [exec] runs each operator as a full-relation pass
   (bottom-up), so a single suffix Bernoulli draws once per tuple
   {e reaching it}, in input order; the streaming interleaving performs
   exactly the same draws in the same order (the other suffix stages
   consume no randomness), hence [fold] visits precisely the tuples
   [exec] would output.  A second RNG-consuming sampler would interleave
   two draw sequences that [exec] performs pass-by-pass, so the split
   stops there and leaves it to the core. *)

type stage =
  | St_select of Expr.t
  | St_project of (string * Expr.t) list
  | St_sample of Sampler.t  (** [Bernoulli] or [Hash_bernoulli] only *)

(* Returns the blocking core and the suffix stages bottom-up (head is
   the stage nearest the core). *)
let split_stream plan =
  let rec go acc nrng = function
    | Select (e, q) -> go (St_select e :: acc) nrng q
    | Project (fs, q) -> go (St_project fs :: acc) nrng q
    | Sample ((Sampler.Bernoulli _ as s), q) when nrng = 0 ->
        Sampler.validate s;
        go (St_sample s :: acc) 1 q
    | Sample ((Sampler.Hash_bernoulli _ as s), q)
      when Array.length (lineage_schema q) = 1 ->
        Sampler.validate s;
        go (St_sample s :: acc) nrng q
    | core -> (core, acc)
  in
  go [] 0 plan

(* A suffix sampler's keep decision for one row, given that row's first
   lineage id: [Hash_bernoulli] keys on it, [Bernoulli] draws. *)
let keep_test rng lineage0 = function
  | Sampler.Bernoulli p -> fun _ -> Gus_util.Rng.bernoulli rng p
  | Sampler.Hash_bernoulli { seed; p } ->
      fun x -> Gus_util.Hashing.prf_float ~seed (lineage0 x) < p
  | Sampler.(Wor _ | Wr _ | Block _) ->
      invalid_arg "Splan: blocking sampler in a stream suffix"

let rec passes fs i =
  match fs with [] -> true | f :: tl -> f i && passes tl i

(* Compile one lane of the suffix over the core relation [rel].  Returns
   [feed lo hi], pushing core rows [lo, hi) through the stages into
   [sink], and [flush ()], adding the lane's sampler row counts to the
   [sampler.*] metrics — once, not per tuple.  The counters are
   lane-local refs, wired in only while metrics are on.

   On a columnar core the leading stages expressible as per-index
   filters — a Vexpr-compilable Select, a sampler — run directly over
   the columns, and a [Tuple.t] is built only for rows that survive
   them.  Draw order is untouched: filters compose in stage order with
   short-circuit (a tuple the row path drops at a Select never reaches
   the Bernoulli, so the index path must not draw for it either), and
   filter stages never reshape tuples, so the remaining stages see the
   core schema. *)
let compile_lane rng rel stages sink =
  let tallies = ref [] in
  let counted s keep =
    if not (Gus_obs.Metrics.enabled ()) then keep
    else begin
      let rows_in = ref 0 and rows_out = ref 0 in
      tallies := (s, rows_in, rows_out) :: !tallies;
      fun x ->
        incr rows_in;
        let k = keep x in
        if k then incr rows_out;
        k
    end
  in
  let schema = rel.Relation.schema in
  let filters, rest =
    match Relation.store rel with
    | Relation.Rows _ -> ([], stages)
    | Relation.Cols c ->
        let rec go acc = function
          | St_select e :: rest as all -> (
              match Vexpr.predicate schema c.Relation.ccols e with
              | Some keep -> go (keep :: acc) rest
              | None -> (List.rev acc, all))
          | St_sample s :: rest ->
              let id i = Relation.lineage_id c ~slot:0 i in
              go (counted s (keep_test rng id s) :: acc) rest
          | (St_project _ :: _ | []) as all -> (List.rev acc, all)
        in
        go [] stages
  in
  (* Fold bottom-up, composing outward: the innermost closure is the
     sink, each stage wraps what is above it. *)
  let rec build sc = function
    | [] -> sink
    | St_select e :: rest ->
        let keep = Expr.bind_predicate sc e in
        let next = build sc rest in
        fun tup -> if keep tup then next tup
    | St_project fields :: rest ->
        let evals = List.map (fun (_, e) -> Expr.bind sc e) fields in
        let next = build (Ops.project_schema fields sc) rest in
        fun tup ->
          let values = Array.of_list (List.map (fun f -> f tup) evals) in
          next (Tuple.with_values tup values)
    | St_sample s :: rest ->
        let id tup = tup.Tuple.lineage.(0) in
        let keep = counted s (keep_test rng id s) in
        let next = build sc rest in
        fun tup -> if keep tup then next tup
  in
  let push = build schema rest in
  let feed lo hi =
    for i = lo to hi - 1 do
      if passes filters i then push (Relation.tuple rel i)
    done
  in
  let flush () =
    List.iter
      (fun (s, rows_in, rows_out) ->
        Sampler.account s ~rows_in:!rows_in ~rows_out:!rows_out)
      !tallies
  in
  (feed, flush)

let m_stream_rows = Gus_obs.Metrics.counter "splan.stream.rows"
let m_stream_folds = Gus_obs.Metrics.counter "splan.stream.folds"

let fold ?pool db rng plan ~init ~f ~merge =
  let core, stages = split_stream plan in
  let rel = exec ?pool db rng core in
  let n = Relation.cardinality rel in
  (* O(1): the streamed-tuple count is the core's cardinality, not a
     per-push increment — nothing rides the per-tuple path. *)
  if Gus_obs.Metrics.enabled () then begin
    Gus_obs.Metrics.incr m_stream_folds;
    Gus_obs.Metrics.add m_stream_rows n
  end;
  let out_schema =
    List.fold_left
      (fun sc -> function
        | St_project fs -> Ops.project_schema fs sc
        | St_select _ | St_sample _ -> sc)
      rel.Relation.schema stages
  in
  (* One lane: a fresh accumulator fed core rows [lo, hi). *)
  let lane (lo, hi) =
    let acc = ref (init out_schema) in
    let feed, flush = compile_lane rng rel stages (fun tup -> acc := f !acc tup) in
    feed lo hi;
    (!acc, flush)
  in
  let module Pool = Gus_util.Pool in
  let uses_rng = function St_sample s -> Sampler.uses_rng s | _ -> false in
  let parts =
    Gus_obs.Trace.span "splan.stream" @@ fun () ->
    match pool with
    | Some p
      when Pool.is_live p && Pool.size p > 1
           && n >= Pool.default_par_threshold
           && not (List.exists uses_rng stages) ->
        (* RNG-free suffix: each lane streams one contiguous chunk into
           its own accumulator; partials merge in chunk order. *)
        let chs = Pool.chunks p ~lo:0 ~hi:n in
        let parts = Array.make (Array.length chs) None in
        Pool.run_chunks p ~lo:0 ~hi:(Array.length chs) (fun klo khi ->
            for k = klo to khi - 1 do
              parts.(k) <- Some (lane chs.(k))
            done);
        Array.map Option.get parts
    | _ -> [| lane (0, n) |]
  in
  Array.iter (fun (_, flush) -> flush ()) parts;
  Array.fold_left
    (fun acc (part, _) -> merge acc part)
    (fst parts.(0))
    (Array.sub parts 1 (Array.length parts - 1))

let rec pp ppf = function
  | Scan name -> Format.pp_print_string ppf name
  | Select (e, q) -> Format.fprintf ppf "select[%a](%a)" Expr.pp e pp q
  | Project (fields, q) ->
      Format.fprintf ppf "project[%s](%a)"
        (String.concat "," (List.map fst fields))
        pp q
  | Equi_join { left; right; left_key; right_key } ->
      Format.fprintf ppf "join[%a=%a](%a, %a)" Expr.pp left_key Expr.pp right_key
        pp left pp right
  | Theta_join (e, l, r) ->
      Format.fprintf ppf "theta_join[%a](%a, %a)" Expr.pp e pp l pp r
  | Cross (l, r) -> Format.fprintf ppf "cross(%a, %a)" pp l pp r
  | Distinct q -> Format.fprintf ppf "distinct(%a)" pp q
  | Sample (s, q) -> Format.fprintf ppf "%s(%a)" (Sampler.to_string s) pp q
  | Union_samples (l, r) -> Format.fprintf ppf "union(%a, %a)" pp l pp r

let pp_tree ppf plan =
  Gus_obs.Planfmt.pp ~label:node_label ~children ppf plan

let relations plan =
  Array.to_list (lineage_schema plan)

let rec subtree plan = function
  | [] -> Some plan
  | i :: rest -> (
      match List.nth_opt (children plan) i with
      | Some child -> subtree child rest
      | None -> None)

module Subset = Gus_util.Subset
module Gus = Gus_core.Gus
module Symalg = Gus_core.Symalg
module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Interval = Gus_stats.Interval
open Gus_relational

let src = Logs.Src.create "gus.sbox" ~doc:"GUS statistical estimator"

module Log = (val Logs.src_log src : Logs.LOG)

type report = {
  gus : Gus.t;
  n_tuples : int;
  total_f : float;
  estimate : float;
  y_hat : float array;
  variance : float;
  variance_raw : float;
  stddev : float;
}

let y_hat_of_moments ?(skip_mask = 0) ~gus y_raw =
  let n = Gus.n_rels gus in
  let nmasks = Subset.count n in
  if Array.length y_raw <> nmasks then
    invalid_arg "Sbox.y_hat_of_moments: moment array length mismatch";
  let y_hat = Array.make nmasks 0.0 in
  (* Masks in decreasing cardinality order so every Ŷ_{S∪T} we reference is
     already solved. *)
  let masks = Array.init nmasks (fun i -> i) in
  Array.sort (fun s t -> compare (Subset.cardinal t) (Subset.cardinal s)) masks;
  Array.iter
    (fun s ->
      if s land skip_mask <> 0 then
        (* Design-inert mask: its Theorem-1 coefficient is exactly zero
           (verified by {!Gus_analysis.Cost.skip_mask}), so the solved Ŷ
           would be multiplied by 0.0 everywhere it could matter.  The raw
           moment was skipped too, so pin the entry rather than solving
           from a zero. *)
        y_hat.(s) <- 0.0
      else begin
        let d = Gus.d_correction gus ~s in
        let d_ss = d.(Subset.empty) in
        if Float.abs d_ss < 1e-300 then begin
          Log.warn (fun m ->
              m "pair probability b_%s = 0: y_%s is not estimable, using 0"
                (Gus.subset_name gus s) (Gus.subset_name gus s));
          y_hat.(s) <- 0.0
        end
        else begin
          let correction = ref 0.0 in
          let comp = Subset.complement n s in
          Subset.iter_subsets comp (fun t ->
              (* Terms whose union hits the skip-mask have an analytically
                 zero d entry (the pair probabilities factor through the
                 inert relation) and a pinned-zero Ŷ, so dropping them is
                 exact. *)
              if t <> Subset.empty && Subset.union s t land skip_mask = 0 then
                correction := !correction +. (d.(t) *. y_hat.(Subset.union s t)));
          y_hat.(s) <- (y_raw.(s) -. !correction) /. d_ss
        end
      end)
    masks;
  y_hat

let of_pairs ?(skip_mask = 0) ~gus pairs =
  let n = Gus.n_rels gus in
  let y_raw = Moments.of_pairs ~skip_mask ~n_rels:n pairs in
  let y_hat = y_hat_of_moments ~skip_mask ~gus y_raw in
  let total_f = Moments.total pairs in
  let estimate = Gus.scale_up gus total_f in
  let variance_raw = Gus.variance gus ~y:y_hat in
  let variance = Float.max 0.0 variance_raw in
  { gus;
    n_tuples = Array.length pairs;
    total_f;
    estimate;
    y_hat;
    variance;
    variance_raw;
    stddev = sqrt variance }

let check_lineage gus lschema =
  let rels = gus.Gus.rels in
  if
    Array.length rels <> Array.length lschema
    || not (Array.for_all2 String.equal rels lschema)
  then
    invalid_arg
      (Printf.sprintf "Sbox: GUS lineage [%s] does not match relation lineage [%s]"
         (String.concat "," (Array.to_list rels))
         (String.concat "," (Array.to_list lschema)))

let check_schema gus rel = check_lineage gus rel.Relation.lineage_schema

let of_relation ?skip_mask ~gus ~f rel =
  check_schema gus rel;
  of_pairs ?skip_mask ~gus (Moments.pairs_of_relation ~f rel)

let report_of_acc ?pool ~gus acc =
  if Moments.Acc.n_rels acc <> Gus.n_rels gus then
    invalid_arg "Sbox.report_of_acc: accumulator arity does not match GUS";
  let y_raw = Moments.Acc.finalize ?pool acc in
  let y_hat = y_hat_of_moments ~skip_mask:(Moments.Acc.skip_mask acc) ~gus y_raw in
  let total_f = Moments.Acc.total acc in
  let estimate = Gus.scale_up gus total_f in
  let variance_raw = Gus.variance gus ~y:y_hat in
  let variance = Float.max 0.0 variance_raw in
  { gus;
    n_tuples = Moments.Acc.count acc;
    total_f;
    estimate;
    y_hat;
    variance;
    variance_raw;
    stddev = sqrt variance }

let of_plan ?pool ?(skip_mask = 0) ?view ?lineage_width ~gus ~f db rng plan =
  Gus_obs.Trace.span "sbox.of_plan" @@ fun () ->
  let lschema = Splan.lineage_schema plan in
  (match (view, lineage_width) with
  | None, None -> check_lineage gus lschema
  | Some v, Some w ->
      (* Wide plan, small live set: the GUS lives on the projected
         universe; the plan's native lineage is [w] columns wide and the
         view says which of them the GUS's relations are. *)
      if Array.length lschema <> w then
        invalid_arg "Sbox.of_plan: lineage_width does not match the plan";
      check_lineage gus (Array.map (fun i -> lschema.(i)) v)
  | _ -> invalid_arg "Sbox.of_plan: view requires lineage_width");
  let n = Gus.n_rels gus in
  let init schema =
    let eval = Expr.bind_float schema f in
    (Moments.Acc.create ~skip_mask ?view ?lineage_width ~n_rels:n (), eval)
  in
  let feed (acc, eval) tup =
    Moments.Acc.add acc tup.Tuple.lineage (eval tup);
    (acc, eval)
  in
  let acc, _ =
    Splan.fold ?pool db rng plan ~init ~f:feed ~merge:(fun (a, e) (b, _) ->
        Moments.Acc.merge a b;
        (a, e))
  in
  Gus_obs.Trace.span "sbox.report_of_acc"
    ~args:(fun () ->
      [ ("tuples", string_of_int (Moments.Acc.count acc)) ])
    (fun () -> report_of_acc ?pool ~gus acc)

let interval ?(coverage = 0.95) method_ report =
  Interval.make ~method_ ~coverage ~estimate:report.estimate ~stddev:report.stddev

let quantile report q =
  Interval.quantile_bound ~estimate:report.estimate ~stddev:report.stddev q

let subsampled ~gus ~f ~target ~seed rel =
  check_schema gus rel;
  let rels = gus.Gus.rels in
  let n = Array.length rels in
  let current = Relation.cardinality rel in
  let rate = Gus_sampling.Subsample.plan_rates ~target ~current ~ndims:n in
  let dims =
    Array.to_list
      (Array.mapi
         (fun i r ->
           { Gus_sampling.Subsample.relation = r; seed = seed + (1000003 * i); p = rate })
         rels)
  in
  let sub = Gus_sampling.Subsample.apply dims rel in
  (* Prop 9: the subsampler is the composition of per-relation Bernoullis;
     Prop 8: it stacks onto the plan's GUS. *)
  let g_sub =
    Array.fold_left
      (fun acc r ->
        let g = Gus.bernoulli ~rel:r rate in
        match acc with None -> Some g | Some a -> Some (Gus.join a g))
      None rels
  in
  let g_stacked =
    match g_sub with None -> gus | Some g -> Gus.compact g gus
  in
  let y_raw_sub = Moments.of_relation ~f sub in
  let y_hat = y_hat_of_moments ~gus:g_stacked y_raw_sub in
  (* Estimate from the *full* sample; only the moments come from the
     subsample. *)
  let pairs = Moments.pairs_of_relation ~f rel in
  let total_f = Moments.total pairs in
  let estimate = Gus.scale_up gus total_f in
  let variance_raw = Gus.variance gus ~y:y_hat in
  let variance = Float.max 0.0 variance_raw in
  { gus;
    n_tuples = Relation.cardinality sub;
    total_f;
    estimate;
    y_hat;
    variance;
    variance_raw;
    stddev = sqrt variance }

let stream ?(seed = 42) ?pool db plan ~f =
  let rng = Gus_util.Rng.create seed in
  let analysis =
    Gus_obs.Trace.span "sbox.analyze" (fun () -> Rewrite.analyze_db db plan)
  in
  let sym = analysis.Rewrite.sym in
  let n = Symalg.n_rels sym in
  let live = Symalg.live_mask sym in
  let k = Subset.cardinal live in
  (* Routing: narrow plans keep the historical dense path bit-for-bit.
     Wider plans with a small live set project the symbolic design onto
     its live relations and run 2^k moment passes over the native
     n-column lineages through a view — the accumulator otherwise keeps
     2^n group tables, which is prohibitive long before the dense
     representation itself gives out at [Subset.max_universe].  The dead
     relations' Theorem-1 coefficients are structural zeros, so the
     estimate and variance are exactly what the dense run would
     produce. *)
  let narrow_limit = 14 in
  let report =
    if n <= narrow_limit then begin
      let gus = Rewrite.dense analysis in
      let skip_mask = Gus_analysis.Cost.skip_mask gus in
      of_plan ?pool ~skip_mask ~gus ~f db rng plan
    end
    else if k <= Subset.max_universe then begin
      let view = Array.of_list (Subset.elements live) in
      let gus = Symalg.to_gus (Symalg.project sym live) in
      of_plan ?pool ~view ~lineage_width:n ~gus ~f db rng plan
    end
    else if n <= Subset.max_universe then begin
      (* Dense-representable but nearly all relations live: the view
         buys nothing, fall back to the historical path. *)
      let gus = Rewrite.dense analysis in
      let skip_mask = Gus_analysis.Cost.skip_mask gus in
      of_plan ?pool ~skip_mask ~gus ~f db rng plan
    end
    else
      raise
        (Rewrite.Unsupported
           (Printf.sprintf
              "plan spans %d relations with %d carrying sampling \
               randomness: estimation needs 2^%d moment passes, above \
               the 2^%d limit"
              n k k Subset.max_universe))
  in
  (report, analysis)

let covariance ~gus ~f ~g rel =
  check_schema gus rel;
  let y_raw = Moments.bilinear_of_relation ~f ~g rel in
  (* The Ŷ correction is linear in the moments, so it applies verbatim to
     the bilinear ones. *)
  let y_hat = y_hat_of_moments ~gus y_raw in
  Gus.variance gus ~y:y_hat

type ratio_report = {
  ratio_estimate : float;
  ratio_variance : float;
  ratio_stddev : float;
  numerator : report;
  denominator : report;
}

let ratio ~gus ~f ~g rel =
  let numerator = of_relation ~gus ~f rel in
  let denominator = of_relation ~gus ~f:g rel in
  if denominator.estimate = 0.0 then
    invalid_arg "Sbox.ratio: denominator estimate is zero";
  let r = numerator.estimate /. denominator.estimate in
  let cov = covariance ~gus ~f ~g rel in
  let mu_g2 = denominator.estimate *. denominator.estimate in
  let v =
    (numerator.variance_raw -. (2.0 *. r *. cov)
    +. (r *. r *. denominator.variance_raw))
    /. mu_g2
  in
  let ratio_variance = Float.max 0.0 v in
  { ratio_estimate = r;
    ratio_variance;
    ratio_stddev = sqrt ratio_variance;
    numerator;
    denominator }

let avg ~gus ~f rel = ratio ~gus ~f ~g:(Expr.float 1.0) rel

type multi_report = {
  labels : string array;
  reports : report array;
  cov : float array array;
}

let multi ~gus ~fs rel =
  check_schema gus rel;
  let labels = Array.of_list (List.map fst fs) in
  let exprs = Array.of_list (List.map snd fs) in
  let k = Array.length exprs in
  let reports = Array.map (fun f -> of_relation ~gus ~f rel) exprs in
  let cov = Array.make_matrix k k 0.0 in
  for i = 0 to k - 1 do
    cov.(i).(i) <- reports.(i).variance_raw;
    for j = i + 1 to k - 1 do
      let c = covariance ~gus ~f:exprs.(i) ~g:exprs.(j) rel in
      cov.(i).(j) <- c;
      cov.(j).(i) <- c
    done
  done;
  { labels; reports; cov }

let linear_combination m w =
  let k = Array.length m.reports in
  if Array.length w <> k then
    invalid_arg "Sbox.linear_combination: weight vector length mismatch";
  let estimate = ref 0.0 in
  Array.iteri (fun i wi -> estimate := !estimate +. (wi *. m.reports.(i).estimate)) w;
  let variance = ref 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      variance := !variance +. (w.(i) *. w.(j) *. m.cov.(i).(j))
    done
  done;
  (!estimate, sqrt (Float.max 0.0 !variance))

let exact db plan ~f =
  let rel = Splan.exec_exact db plan in
  let eval = Expr.bind_float rel.Relation.schema f in
  Relation.fold (fun acc tup -> acc +. eval tup) 0.0 rel

module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Interval = Gus_stats.Interval
open Gus_relational

type prediction = {
  estimate : float;
  stddev : float;
  interval : Interval.t;
  sample_tuples : int;
}

let one = Expr.float 1.0

let predict ?(seed = 11) ?(coverage = 0.95) db plan =
  let report, _ = Sbox.stream ~seed db plan ~f:one in
  { estimate = report.Sbox.estimate;
    stddev = report.Sbox.stddev;
    interval = Sbox.interval ~coverage Interval.Normal report;
    sample_tuples = report.Sbox.n_tuples }

let rec sample_scans rate = function
  | Splan.Scan name ->
      Splan.Sample (Gus_sampling.Sampler.Bernoulli rate, Splan.Scan name)
  | Splan.Select (p, q) -> Splan.Select (p, sample_scans rate q)
  | Splan.Project (fields, q) -> Splan.Project (fields, sample_scans rate q)
  | Splan.Equi_join j ->
      Splan.Equi_join
        { j with
          left = sample_scans rate j.left;
          right = sample_scans rate j.right }
  | Splan.Theta_join (p, l, r) ->
      Splan.Theta_join (p, sample_scans rate l, sample_scans rate r)
  | Splan.Cross (l, r) -> Splan.Cross (sample_scans rate l, sample_scans rate r)
  | Splan.Distinct q -> Splan.Distinct (sample_scans rate q)
  | Splan.Sample (_, q) -> sample_scans rate q
  | Splan.Union_samples (l, _) -> sample_scans rate l

let predict_with_rates ?seed ?coverage db ~rate plan =
  if not (rate > 0.0 && rate <= 1.0) then
    invalid_arg "Size_estimator.predict_with_rates: rate not in (0,1]";
  predict ?seed ?coverage db (sample_scans rate (Splan.strip_samples plan))

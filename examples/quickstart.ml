(* Quickstart: estimate a SUM over a sampled join and get confidence
   intervals, using the library API directly (no SQL).

   Run with:  dune exec examples/quickstart.exe *)

module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Sbox = Gus_estimator.Sbox
module Sampler = Gus_sampling.Sampler
module Interval = Gus_stats.Interval
open Gus_relational

let () =
  (* 1. A database.  Here: generated TPC-H-style data; in an application
     you would load your own relations (see Csv.load / Relation.append_row). *)
  let db = Gus_tpch.Tpch.generate ~seed:1 ~scale:1.0 () in

  (* 2. A sampling plan: Bernoulli 10% of lineitem joined with a 1000-row
     WOR sample of orders — the paper's Query 1. *)
  let plan =
    Splan.equi_join
      (Splan.sample (Sampler.Bernoulli 0.10) (Splan.scan "lineitem"))
      (Splan.sample (Sampler.Wor 1000) (Splan.scan "orders"))
      ~on:("l_orderkey", "o_orderkey")
  in
  let f = Expr.(col "l_extendedprice" * (float 1.0 - col "l_discount")) in

  (* 3. Execute the plan and analyze the sample in one call: the rewriter
     pushes the samplers up into a single GUS quasi-operator (Props 4-8),
     the SBox computes the unbiased estimate and its variance (Thm 1). *)
  let report, analysis = Sbox.stream ~seed:7 db plan ~f in

  Format.printf "sample:   %d result tuples@." report.Sbox.n_tuples;
  Format.printf "top GUS:  @[%a@]@.@." Gus_core.Gus.pp (Lazy.force analysis.Rewrite.gus);
  Format.printf "estimate: %.4g  (stddev %.3g)@." report.Sbox.estimate
    report.Sbox.stddev;
  Format.printf "95%% CI (normal):    %a@." Interval.pp
    (Sbox.interval Interval.Normal report);
  Format.printf "95%% CI (Chebyshev): %a@." Interval.pp
    (Sbox.interval Interval.Chebyshev report);

  (* 4. Compare with the exact answer (normally you would not compute it -
     that is the whole point - but this is a demo). *)
  let truth = Sbox.exact db plan ~f in
  Format.printf "@.exact answer: %.4g  (relative error %.2f%%)@." truth
    (100.0 *. Float.abs (report.Sbox.estimate -. truth) /. truth)

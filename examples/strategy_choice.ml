(* Choosing sampling parameters (paper Section 8): given ONE pilot sample,
   the unbiased Y-hat moments predict the variance of any other GUS design
   on the same query - so you can pick the cheapest design that meets an
   accuracy target without running any of the candidates.

   Run with:  dune exec examples/strategy_choice.exe *)

module Splan = Gus_core.Splan
module Rewrite = Gus_analysis.Rewrite
module Gus = Gus_core.Gus
module Sbox = Gus_estimator.Sbox
module Sampler = Gus_sampling.Sampler
open Gus_relational

let () =
  let db = Gus_tpch.Tpch.generate ~seed:11 ~scale:1.0 () in
  let f = Expr.(col "l_extendedprice" * (float 1.0 - col "l_discount")) in
  (* Pilot: a generous sample, taken once. *)
  let pilot =
    Splan.equi_join
      (Splan.sample (Sampler.Bernoulli 0.3) (Splan.scan "lineitem"))
      (Splan.sample (Sampler.Bernoulli 0.5) (Splan.scan "orders"))
      ~on:("l_orderkey", "o_orderkey")
  in
  let report, analysis = Sbox.stream ~seed:17 db pilot ~f in
  Printf.printf "pilot sample: %d result tuples; estimate %.4g (sd %.3g)\n\n"
    report.Sbox.n_tuples report.Sbox.estimate report.Sbox.stddev;
  ignore analysis;
  let y_hat = report.Sbox.y_hat in
  (* Candidate designs, costed by expected rows read. *)
  let li = Relation.cardinality (Database.find db "lineitem") in
  let od = Relation.cardinality (Database.find db "orders") in
  let candidates =
    [ ("Bernoulli 2% x 20%", 0.02, 0.20);
      ("Bernoulli 5% x 10%", 0.05, 0.10);
      ("Bernoulli 5% x 50%", 0.05, 0.50);
      ("Bernoulli 10% x 20%", 0.10, 0.20);
      ("Bernoulli 20% x 50%", 0.20, 0.50) ]
  in
  Printf.printf "%-22s %14s %14s\n" "candidate" "rows read" "predicted sd";
  let target = report.Sbox.estimate *. 0.05 in
  List.iter
    (fun (name, p1, p2) ->
      let g =
        Gus.join (Gus.bernoulli ~rel:"lineitem" p1) (Gus.bernoulli ~rel:"orders" p2)
      in
      let sd = sqrt (Float.max 0.0 (Gus.variance g ~y:y_hat)) in
      let cost = (float_of_int li *. p1) +. (float_of_int od *. p2) in
      Printf.printf "%-22s %14.0f %14.4g%s\n" name cost sd
        (if sd <= target then "   <- meets 5% target" else ""))
    candidates;
  Printf.printf
    "\n(predicted sd computed by plugging each design's c_S coefficients \
     into Theorem 1 with the pilot's Y-hat moments; no candidate was \
     executed.)\n"

(** Static SOA-soundness linter for sampling plans.

    The paper's central promise is that a plan's statistical behaviour can
    be analyzed {e without executing it}: the GUS parameters are pure
    sampling-design quantities, independent of the data moments.  This pass
    walks a {!Gus_core.Splan.t} bottom-up, mirrors the SOA rewrite of
    Section 4 tolerantly, and emits the {e complete} list of
    {!Diagnostic.t} findings instead of stopping at the first precondition
    violation the way {!Rewrite.analyze} historically did.  [Error]
    findings are exactly the plans outside the GUS theory (Props. 5–9,
    Section 9); [Warning]/[Hint] findings flag statistically degenerate or
    improvable but legal plans.

    {!Rewrite.analyze} is a thin wrapper over this pass: it raises
    {!Rewrite.Unsupported} iff the linter reports at least one [Error]. *)

type config = {
  small_a : float;
      (** warn (GUS010) when the plan's effective first-order inclusion
          probability is positive but below this threshold — Theorem 1's
          variance terms scale with [c_S/a²] *)
  variance_bound : float;
      (** hint (GUS015) when the Theorem-1 worst-case relative variance
          bound (f ≥ 0) is at or above this threshold *)
  cost_budget : float;
      (** warn (GUS014) when the predicted coefficient-enumeration cost
          (live moment passes × estimated group count) exceeds this *)
}

val default_config : config
(** [{ small_a = 1e-3; variance_bound = 1e4; cost_budget = 1e8 }]. *)

type coeff_engine = [ `Symbolic | `Dense ]
(** Which coefficient engine the root checks and cost model run on.
    [`Symbolic] (the default) keeps the design in
    {!Gus_core.Symalg} sum-of-products form — closed-form sparse
    coefficients, no [2^n] enumeration, works past the dense width wall.
    [`Dense] materializes the full [2^n] vector and runs the historical
    path — the legacy measurement baseline ([gusdb lint
    --dense-coeffs]), byte-identical in output where both engines
    apply. *)

type analysis = {
  skeleton : Gus_core.Splan.t;
      (** the input with every sampling operator removed *)
  sym : Gus_core.Symalg.t;
      (** single equivalent GUS over the skeleton's lineage, in symbolic
          sum-of-products form *)
  gus : Gus_core.Gus.t Lazy.t;
      (** dense materialization of [sym], built on first use; force it
          with {!force_gus}.  Forcing raises {!Gus_core.Gus.Incompatible}
          past the dense width wall ({!Gus_util.Subset.max_universe}
          relations) *)
  steps : (string * Gus_core.Symalg.t) list;
      (** derivation trace, leaves first — the Figure-4 walk-through *)
  facts : Dataflow.table;
      (** per-node abstract-interpretation facts (pre-order) *)
  cost : Cost.report;
      (** static cost/variance model, including the verified skip-mask *)
  sampler_gus : (Diagnostic.path * Gus_core.Symalg.t) list;
      (** the Figure-1 GUS of each sampling operator, keyed by plan path
          — computed once here so executors need not re-lint per run *)
}

type report = {
  diagnostics : Diagnostic.t list;
      (** every finding, in plan (pre-order path) order *)
  analysis : analysis option;
      (** the successful SOA rewrite; [Some] iff no [Error] diagnostics *)
}

val run :
  ?config:config ->
  ?engine:coeff_engine ->
  card:(string -> int) ->
  Gus_core.Splan.t ->
  report
(** Lint a plan.  [card] resolves base-relation cardinalities: it feeds
    the WOR translation ([a = n/N], consulted for WOR over a [Scan] or a
    cardinality-preserving [Project] chain over one) and the {!Dataflow}
    cardinality intervals.  Never raises on any plan shape (assuming
    [card] is total — a relation of cardinality 0 is fine); raises
    [Invalid_argument] only on a config with negative (or NaN)
    thresholds. *)

val run_db :
  ?config:config ->
  ?engine:coeff_engine ->
  Gus_relational.Database.t ->
  Gus_core.Splan.t ->
  report

val force_gus : Gus_core.Gus.t Lazy.t -> Gus_core.Gus.t
(** [Lazy.force] for {!analysis.gus}, safe to call from several domains
    at once (forces are serialized on one lock).  Executors running one
    prepared handle on several pool lanes must force through this. *)

val errors : report -> Diagnostic.t list
val warnings : report -> Diagnostic.t list
val hints : report -> Diagnostic.t list

val check_gus :
  ?path:Diagnostic.path -> ?node:string -> Gus_core.Gus.t -> Diagnostic.t list
(** Coherence checks on a single GUS value: [a ∈ (0,1]] and every
    second-order probability bounded by its marginal ([b_T ≤ a]). *)

val check_sym :
  ?path:Diagnostic.path ->
  ?node:string ->
  Gus_core.Symalg.t ->
  Diagnostic.t list
(** Symbolic twin of {!check_gus}: the [a] checks are shared; the
    [b_T ≤ a] scan is skipped wholesale for provably-monotone designs,
    enumerates only the live subsets otherwise, and falls back to the
    full dense scan for dense-fallback representations. *)

(** What a sampler's input looks like, for WOR/block translatability:
    a bare [Scan]; a cardinality-preserving [Project] chain over one
    (rows 1:1 with base rows, so WOR's [N] resolves through the skeleton
    to the base cardinality); a sample-free derived input whose
    cardinality is fixed but not statically known (GUS018); or an input
    that is itself sampled, making [N] a random variable (GUS003). *)
type sampler_input =
  | Over_scan
  | Over_preserving
  | Over_fixed
  | Over_random

val translate_sampler :
  card:(string -> int) ->
  over:Gus_relational.Lineage.schema ->
  input:sampler_input ->
  path:Diagnostic.path ->
  node:string ->
  emit:(Diagnostic.t -> unit) ->
  Gus_sampling.Sampler.t ->
  Gus_core.Gus.t option
(** Figure-1 translation of one sampling operator applied to an input
    with the given lineage schema and {!sampler_input} kind.  Emits every
    applicable diagnostic through [emit] and returns the GUS when the
    sampler has one (possibly alongside hints). *)

val fixes : report -> Fix.t list
(** The machine-applicable fixes attached to the report's diagnostics,
    in diagnostic order. *)

val apply_fixes :
  ?config:config ->
  card:(string -> int) ->
  Gus_core.Splan.t ->
  Gus_core.Splan.t * Fix.t list
(** Lint → apply every attached fix → re-lint, to a fixpoint.  Returns
    the rewritten plan and the fixes applied, in application order.
    Every fix is a GUS-equivalence, so the result has the same skeleton
    and estimator expectation as the input. *)

val node_label : Gus_core.Splan.t -> string
(** The one-line operator head used in diagnostics and tree rendering;
    matches the corresponding {!Gus_core.Splan.pp_tree} line. *)

val summary : report -> string
(** ["2 error(s), 1 warning(s), 0 hint(s)"]. *)

val pp_report : Format.formatter -> report -> unit
(** All diagnostics, one per line, then the analyzability verdict and the
    summary counts. *)

val pp_annotated_plan : Format.formatter -> Gus_core.Splan.t * report -> unit
(** {!Gus_core.Splan.pp_tree} with [<-- GUSxxx] markers appended to the
    lines carrying diagnostics. *)

val to_json : report -> string
(** Stable machine-readable rendering for [gusdb lint --json]. *)

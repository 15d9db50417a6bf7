(** The cost-based query planner: compile once, optimize, cache, and
    evaluate against live database states.

    Plans are cached under a structural hash of the relational term or
    wff ({!Formula.hash}), keyed per schema via {!Schema.fingerprint};
    negative results (bodies outside the safe fragment) are cached too.
    The cache is safe across {!Fdbs_kernel.Pool} domains. *)

open Fdbs_kernel
open Fdbs_logic

(** The optimized plan of a relational term under a schema, from the
    cache when warm; [None] when the body is outside the safe
    fragment. *)
val plan_rterm : Schema.t -> Stmt.rterm -> Relalg.expr option

(** The optimized 0-ary plan of a closed wff; [None] when open or
    unsafe. *)
val plan_wff : Schema.t -> Formula.t -> Relalg.expr option

(** Evaluate a relational term through the plan cache. [`Compiled]
    raises a structured {!Error.Error} ([Not_compilable]) outside the
    safe fragment; [`Auto] (default) falls back to the naive
    evaluator. *)
val eval_rterm :
  ?strategy:[ `Naive | `Compiled | `Auto ] ->
  schema:Schema.t ->
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  Stmt.rterm ->
  Relation.t

(** Truth of a closed wff through the plan cache: an emptiness test on
    the compiled 0-ary plan. [`Auto] (default) falls back to
    {!Relcalc.holds} outside the safe fragment; [`Compiled] raises the
    structured error instead. *)
val holds :
  ?strategy:[ `Naive | `Compiled | `Auto ] ->
  schema:Schema.t ->
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  Formula.t ->
  bool

(** Truth of a closed wff against the post-commit state, maintained
    differentially. [before] is the committed state the materialization
    cache last published against (compared by reference) and [delta]
    the exact difference to the new state. A warm materialization
    advances through the per-operator delta rules
    ([planner.delta_hit], [delta.apply] span); a cold one evaluates
    the plan in full and materializes ([planner.delta_miss]); stale
    state, inapplicable delta rules, and non-compilable wffs
    re-evaluate in full ([planner.delta_fallback]).

    Returns the verdict and a publish thunk; the cache is only updated
    when the thunk runs — call it after the surrounding commit
    succeeded, never on rollback. [shared:false] (ad-hoc constraints)
    bypasses the shared cache entirely.

    Callers are schema constraint checks and {!Monitor.check}, which
    passes each depth ≤ 1 axiom's wff over the two-state monitor
    database with the time-tagged monitor delta (or, on a first commit
    or resync, the freshly rebuilt database as its own [before] with
    {!Delta.empty}, which never matches a published entry). *)
val holds_delta :
  ?strategy:[ `Naive | `Compiled | `Auto ] ->
  schema:Schema.t ->
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  before:Db.t ->
  delta:Delta.t ->
  ?shared:bool ->
  Db.t ->
  Formula.t ->
  bool * (unit -> unit)

(** Toggle differential maintenance process-wide (on by default);
    when off, {!holds_delta} evaluates directly like {!holds} — for
    constraint checks and {!Monitor} verdicts alike. *)
val set_materialization : bool -> unit

val materialization_active : unit -> bool

(** Cumulative [(delta_hit, delta_fallback, delta_miss)] counts; also
    exported as [planner.delta_*] {!Fdbs_kernel.Metrics} counters. *)
val delta_stats : unit -> int * int * int

(** Cumulative cache [(hits, misses)] since start or {!clear}; also
    exported process-wide as the [planner.cache.hit]/[planner.cache.miss]
    {!Fdbs_kernel.Metrics} counters. *)
val stats : unit -> int * int

(** Drop every cached plan and zero the counters. *)
val clear : unit -> unit

(** Test hook: [set_key_mask (Some m)] masks every cache key with
    [land m], forcing hash-bucket collisions so tests can exercise the
    structural slot comparison (a slot matches only if schema {e and}
    term compare equal — a collision must re-plan, never cross-serve).
    [None] restores full-width keys. Not for production use. *)
val set_key_mask : int option -> unit

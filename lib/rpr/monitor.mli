(** Streaming temporal monitors: the information level's transition
    constraints (◇/□ wffs, paper Section 3.1) compiled into incremental
    checks that run on the live commit stream.

    Offline, a transition constraint is checked by building the whole
    universe of states and asking {!Fdbs_temporal.Check.check_axioms}.
    Online we never have the universe — only the current commit taking
    [before] to [after]. A monitor closes that gap with the paper's own
    alternative semantics: the time-sorted translation
    ({!Fdbs_temporal.Timesort}). Each axiom is translated into an
    ordinary first-order wff over a {e monitor schema} whose relations
    carry a trailing [time] column plus an [accessible] relation; the
    one-step universe of a commit is the two-state database
    [widen(before, 0) ∪ widen(after, 1)] with [accessible = {(0,1)}].
    The translated wff is closed by fixing the free time variable [now]
    to a literal time point, so the {!Planner} compiles it into a plan
    like any other constraint. Each depth ≤ 1 verdict goes through
    {!Planner.holds_delta}: the materialization of the axiom's plan
    lives in the planner's table (the one constraint checks use, keyed
    by the monitor schema) and advances through the {!Delta} rules
    from commit to commit. The monitor database's delta between
    consecutive commits is exactly the previous commit's delta tagged
    with time 0 plus the current one tagged with time 1 (because
    [before'] = [after]). Hits, misses and fallbacks count under
    [planner.delta_*].

    Verdict timing follows modal depth. A static axiom (depth 0) is
    checked on the post-commit state; a one-step transition axiom
    (depth 1) yields a verdict about the {e pre}-commit state as soon
    as its successor exists; an axiom of depth d nests d commits deep,
    so its verdict about state [k - d] is only emitted at commit [k] —
    such monitors keep a sliding window of the last [d + 1] states and
    re-evaluate their (still compiled) plan over it through
    {!Planner.holds}.

    Monitors follow the transactional publish discipline: {!check}
    computes prospective verdicts without mutating anything and returns
    a publish thunk; {!Txn.run}'s [on_commit] hook fires the thunk only
    after the journal append succeeded. A follower replays the same
    commits through the same path, so attaching monitors to a replica
    costs the leader nothing. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal

type event = {
  ev_axiom : string;  (** the violated axiom's name *)
  ev_kind : Tformula.kind;
  ev_state : int;
      (** index (commits since {!attach}) of the state the verdict is
          about; lags the current commit by the axiom's modal depth *)
}

(** One compiled axiom. *)
type compiled = private {
  m_name : string;
  m_kind : Tformula.kind;
  m_depth : int;  (** modal depth; window size is [m_depth + 1] *)
  m_wff : Formula.t;
      (** the closed time-sorted translation the planner evaluates *)
  m_compiled : bool;  (** [false] = outside the safe fragment, naive *)
  mutable m_violations : int;
}

type t

(** Compile a theory's axioms against a schema. Db-predicates bind to
    relations by the canonical name correspondence (case-insensitive,
    as in {!Fdbs_refinement.Interp23}); a db-predicate with no homonym
    relation, or disagreeing on sorts, is an error. Axioms that cannot
    be monitored (e.g. they mention a [shared] predicate with no
    relation behind it) are never silently dropped: they land in
    {!skipped} with a reason. *)
val compile :
  ?consts:(string * Value.t) list ->
  schema:Schema.t ->
  Ttheory.t ->
  (t, Error.t) result

(** Parse a theory file ({!Fdbs_temporal.Tparser.theory}) and compile
    it. *)
val of_file :
  ?consts:(string * Value.t) list ->
  schema:Schema.t ->
  string ->
  (t, Error.t) result

val name : t -> string
val monitors : t -> compiled list

(** Axioms that could not be monitored, with reasons. *)
val skipped : t -> (string * string) list

(** Commits observed since {!attach}. *)
val commits : t -> int

val violations : t -> int

(** Seed the monitor with the current committed state (state 0). *)
val attach : t -> Db.t -> unit

(** Evaluate every monitor against the commit [before → after] without
    mutating monitor state. Returns the violation events (empty when
    every axiom holds) and the publish thunk that advances the monitor
    to [after]; fire it only once the commit is durable. If [before]
    is not the state last published (a monitor attached mid-stream, or
    a commit raced past), the monitor resynchronizes — counted by the
    [monitor.resync] metric — rather than reporting nonsense. *)
val check :
  t ->
  domain:Domain.t ->
  before:Db.t ->
  after:Db.t ->
  event list * (unit -> unit)

(** {!check} + publish in one step, for replay/test paths that do not
    stage commits. *)
val advance : t -> domain:Domain.t -> before:Db.t -> after:Db.t -> event list

(** The error a violation event maps to on an enforcing commit path:
    code {!Error.Monitor_violation}, phase [Commit]. *)
val error_of_event : event -> Error.t

val pp_event : event Fmt.t

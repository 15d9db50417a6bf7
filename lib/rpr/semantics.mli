(** The meaning functions of RPR (paper Section 5.1.2).

    [m] assigns to each statement a binary relation over the universe of
    database states; realized operationally as the set-of-outcomes
    function {!exec} — m(s) = {(A,B) | B ∈ exec s A}. Iteration is the
    reflexive-transitive closure, computed as a fixpoint with a state
    cap. [k] gives a procedure's meaning ({!call}): the body's meaning
    in the state where the formal parameters hold the actual values
    (paper rule (7)); the parameters' previous values are restored
    afterwards. *)

open Fdbs_kernel
open Fdbs_logic

type env = {
  schema : Schema.t;
  domain : Domain.t;  (** carriers for quantifiers and naive relational terms *)
  consts : (string * Value.t) list;  (** declared constants' values *)
  strategy : [ `Naive | `Compiled | `Auto ];  (** relational-term evaluation *)
  star_limit : int;  (** cap on distinct states explored by iteration/while *)
  budget : Budget.t;  (** resource account every statement spends against *)
}

(** Build an execution environment; declared constants default to their
    symbolic values, the budget to unlimited. Execution spends one step
    of the budget per statement and caps fixpoint explorations by its
    distinct-state allowance (tightening [star_limit]); exhaustion
    raises {!Fdbs_kernel.Budget.Exhausted}. *)
val env :
  ?consts:(string * Value.t) list ->
  ?strategy:[ `Naive | `Compiled | `Auto ] ->
  ?star_limit:int ->
  ?budget:Budget.t ->
  domain:Domain.t ->
  Schema.t ->
  env

(** The same environment charged against a different budget. *)
val with_budget : Budget.t -> env -> env

exception Exec_error of string

(** Operational form of the meaning function m: all outcome states of
    running the statement, each paired with the exact {!Delta.t}
    taking the input state to it (equal to {!Delta.of_dbs} of the two).
    The delta is the statement's write set: [Insert]/[Delete] record
    their tuple only when it changes the relation, [Rel_assign] diffs
    only the relation it assigns, compounds compose with net
    cancellation, and the scalar flag compares scalars directly. An
    empty list means the statement is blocked (its tests admit no
    outcome). Raises {!Exec_error} on undeclared relations or exceeded
    iteration limits. *)
val exec : env -> Stmt.t -> Db.t -> (Db.t * Delta.t) list

(** Procedure meaning k (paper rule (7)) with write sets: run the body
    with the formal parameters bound to the arguments; restore the
    parameters' previous scalar values in every outcome, which is
    paired with its exact {!Delta.t} as in {!exec}. *)
val call_delta :
  env -> Schema.proc -> Value.t list -> Db.t -> (Db.t * Delta.t) list

(** {!call_delta} without the write sets. *)
val call : env -> Schema.proc -> Value.t list -> Db.t -> Db.t list

(** Call a procedure by name, requiring a single (deterministic)
    outcome. Execution-level failures come back as a structured
    {!Fdbs_kernel.Error.t} whose message carries the classic string;
    budget exhaustion and injected faults still raise, as for
    {!call}. *)
val call_det :
  env -> string -> Value.t list -> Db.t -> (Db.t, Fdbs_kernel.Error.t) result

val call_det_exn : env -> string -> Value.t list -> Db.t -> Db.t

(** Truth of a closed wff in a state — the query side of the DML
    (paper Section 5.2: expressions [R(t̄)] yield True iff t̄ ∈ R). *)
val query : env -> Db.t -> Formula.t -> bool

(** Like {!query}, maintained differentially through the planner's
    materialization cache ({!Planner.holds_delta}): [before] is the
    state the cache last published against, [delta] the exact
    difference to the queried state. Returns the verdict and a publish
    thunk to run once the surrounding commit succeeded; [shared:false]
    keeps ad-hoc wffs out of the shared per-schema cache. *)
val query_delta :
  env ->
  before:Db.t ->
  delta:Delta.t ->
  ?shared:bool ->
  Db.t ->
  Formula.t ->
  bool * (unit -> unit)

(** Differential maintenance for the relational algebra: exact
    per-relation insert/delete sets between two database states, and
    the classic ΔQ(R ⊎ ΔR) per-operator rules that push such a delta
    through a materialized compiled plan in time proportional to the
    delta instead of the database. The {!Planner} keeps one
    materialization per (schema, constraint) and advances it on every
    commit; when a rule does not apply ({!Not_incremental}) it falls
    back to full re-evaluation, mirroring the [Not_compilable]
    pattern. *)

open Fdbs_kernel

module SMap : Map.S with type key = string

type t = {
  inserts : Relation.t SMap.t;  (** disjoint from the before-state *)
  deletes : Relation.t SMap.t;  (** contained in the before-state *)
  scalars_changed : bool;
}

val empty : t
val is_empty : t -> bool

(** Insert/delete set for one relation ([sorts] shapes the empty
    default when the relation is untouched). *)
val inserts : t -> string -> sorts:Sort.t list -> Relation.t

val deletes : t -> string -> sorts:Sort.t list -> Relation.t

(** Relation names touched by the delta, sorted. *)
val touches : t -> string list

(** Total number of inserted plus deleted tuples. *)
val cardinal : t -> int

(** The exact difference taking [before] to [after]; relations shared
    by reference between the two states are skipped, so cost is
    proportional to the changed relations. Commits take their delta
    from the write set instead ({!Semantics.exec}); this is the
    oracle the write sets are tested against. On the two states last
    passed to {!remember} on this domain (compared physically), it
    answers the remembered delta without diffing them. *)
val of_dbs : before:Db.t -> after:Db.t -> t

(** [remember ~before ~after d] records [d], which must equal the diff
    of the two states, for {!of_dbs}. {!Txn.run} records each commit's
    write-set delta before its commit hook runs, so a hook that diffs
    the commit's two states (a monitor) pays O(|d|), not O(|changed
    relations|). One record per domain; the next replaces it. *)
val remember : before:Db.t -> after:Db.t -> t -> unit

(** [inserted name r]: the tuples of [r], absent before, inserted into
    relation [name]; [deleted name r]: the tuples of [r], present
    before, deleted from it. *)
val inserted : string -> Relation.t -> t

val deleted : string -> Relation.t -> t

(** The difference rebinding one relation from [before] to [after]
    makes: {!empty} for a shared value, a diff of the two otherwise. *)
val of_relation : string -> before:Relation.t -> after:Relation.t -> t

(** [d] with its scalar flag settled by comparing the scalars of
    [before] and [after] directly (as {!of_dbs} does). *)
val with_scalars : before:Db.t -> after:Db.t -> t -> t

(** Apply the relational part of a delta to a state. *)
val apply : t -> Db.t -> Db.t

(** Sequential composition: the delta of applying the first then the
    second (re-inserted deletes and re-deleted inserts net out). *)
val compose : t -> t -> t

val pp : t Fmt.t

(** A materialized plan: the evaluated output of every operator in a
    compiled expression, in the expression's shape. *)
type node = {
  out : Relation.t;
  kids : node list;
}

(** Raised by {!advance} when no delta rule applies (today: a scalar
    changed, and ground terms read scalars). Callers fall back to full
    re-evaluation. *)
exception Not_incremental

(** Evaluate bottom-up, keeping every operator's output;
    [(materialize db e).out] agrees with [Relalg.eval db e]. *)
val materialize :
  domain:Domain.t -> ?consts:(string * Value.t) list -> Db.t -> Relalg.expr -> node

(** Push a delta through a materialization: returns the updated
    materialization and the exact insert/delete sets of the plan
    output ([out' = (out \ del) ∪ ins]). [after] is the post-commit
    state. Raises {!Not_incremental} when no rule applies. *)
val advance :
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  after:Db.t ->
  t ->
  Relalg.expr ->
  node ->
  node * Relation.t * Relation.t

(** Relation names a plan reads, in syntactic order (with repeats). *)
val reads : Relalg.expr -> string list

(** The insert-derivative of a plan with respect to one relation's
    delta, rendered in plan syntax with zero branches dropped; [None]
    when the plan does not read the relation. *)
val derivative : string -> Relalg.expr -> string option

(** One [(relation, rendered derivative)] line per relation the plan
    reads, in first-read order. *)
val derivatives : Relalg.expr -> (string * string) list

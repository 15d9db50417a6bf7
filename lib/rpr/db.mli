(** Database states: a value for every relational program variable
    (relation name) and every scalar program variable. Two states of a
    universe differ only in these values (paper Section 5.1.2). *)

open Fdbs_kernel

module SMap : Map.S with type key = string

type t = {
  relations : Relation.t SMap.t;
  scalars : Value.t SMap.t;
}

val empty : t

val with_relation : string -> Relation.t -> t -> t
val with_scalar : string -> Value.t -> t -> t

val relation : t -> string -> Relation.t option
val scalar : t -> string -> Value.t option

(** Raises [Invalid_argument] on undeclared relations. *)
val relation_exn : t -> string -> Relation.t

val relations : t -> (string * Relation.t) list
val scalars : t -> (string * Value.t) list

val equal : t -> t -> bool

(** A structural hash consistent with {!equal}, built from the cached
    per-relation hashes; cheap enough to key visited-state tables in
    fixpoint exploration. *)
val hash : t -> int

(** Union of every relation's active domain. *)
val active_domain : t -> Domain.t

(** Total number of tuples across all relations. *)
val size : t -> int

val pp : t Fmt.t

(** A canonical digest for deduplication in state-space exploration. *)
val key : t -> string

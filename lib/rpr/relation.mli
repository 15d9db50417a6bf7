(** Finite relations: sets of equal-length value tuples, the data
    structures of the relational model that RPR programs manipulate
    (paper Section 5.1).

    The representation is abstract: a canonical sorted tuple set
    carrying lazily built, atomically published caches — a whole-
    extension hash, a membership table, per-column value indexes
    (column 0 needs none: the set is ordered by it), and the chunked
    rendered text of {!render_text}. {!add}, {!remove} and {!patch}
    carry the indexes and the text to the next version in
    O(|writes| log n), so a lookup after a small write into an indexed
    version costs O(log n), never a rebuild. All operations are defined
    by the tuple set alone; it is safe to share relation values across
    {!Fdbs_kernel.Pool} worker domains. *)

open Fdbs_kernel

module Tuple : sig
  type t = Value.t list

  val compare : t -> t -> int
  val equal : t -> t -> bool

  (** Deterministic across runs, consistent with {!equal}. *)
  val hash : t -> int

  val pp : t Fmt.t
end

module Tuple_set : Set.S with type elt = Tuple.t

type t

val empty : Sort.t list -> t

(** Column sorts; the relation's arity is their length. *)
val sorts : t -> Sort.t list

(** The underlying canonical tuple set. *)
val tuple_set : t -> Tuple_set.t

val arity : t -> int

(** Raises [Invalid_argument] on arity mismatch. Adding a present
    tuple (removing an absent one) returns the relation itself, so a
    write that changes nothing is visible as physical equality. *)
val add : Tuple.t -> t -> t

val remove : Tuple.t -> t -> t

(** [patch ~ins ~del r] is [union (diff r del) ins], with [r]'s column
    indexes and text carried over: O(|ins| + |del|) set and index
    updates of O(log n) each, instead of a cold value. Returns [r]
    itself when both are empty. *)
val patch : ins:t -> del:t -> t -> t

(** O(log n) for a relation value's first 16 probes, then O(1) from a
    lazily built hash table: only a value probed often enough to repay
    the O(n) build gets one. The table is not carried to the next
    version. *)
val mem : Tuple.t -> t -> bool

(** The tuples whose column [col] holds [value], as a relation. Column
    0 is a range of the ordered set, cut out in O(log n); another
    column is one lookup in its index, O(log n) once the relation's
    indexes exist. They are built in one O(n log n) pass on the first
    such lookup into a version no write carried them to. Raises
    [Invalid_argument] if [col] is out of range. *)
val find_by : col:int -> Value.t -> t -> t

(** Raises [Invalid_argument] on arity mismatch. *)
val singleton : Sort.t list -> Tuple.t -> t

val of_list : Sort.t list -> Tuple.t list -> t
val to_list : t -> Tuple.t list

val cardinal : t -> int
val is_empty : t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val filter : (Tuple.t -> bool) -> t -> t
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool

val equal : t -> t -> bool

(** A canonical hash of the extension, computed once per relation value
    and cached; consistent with {!equal}. *)
val hash : t -> int

(** [render_text ~render buf r] appends [r]'s tuples in order, each
    written by [render], separated by [", "]. The text is cached on [r]
    in chunks of about 64 tuples, and {!add}, {!remove} and {!patch}
    pass it on with only the touched chunks stale, so rendering a version
    one write away from a rendered one re-renders one chunk and copies
    the rest: O(|writes| + |r| / 64) rendering work instead of O(|r|).
    The cache is reused only for the physically same [render]; bulk
    constructors start cold. Safe to call from several domains at
    once: a chunk map is published whole, as the other caches are. *)
val render_text : render:(Buffer.t -> Tuple.t -> unit) -> Buffer.t -> t -> unit

(** [compose a b = {(x, z) | (x, y) ∈ a, (y, z) ∈ b}] for binary
    relations sharing their middle sort, evaluated through a hash table
    of [b]'s successors built once per call. Raises [Invalid_argument]
    otherwise. *)
val compose : t -> t -> t

(** Transitive closure of a homogeneous binary relation by semi-naive
    composition through one successor table. Raises
    [Invalid_argument] otherwise. *)
val transitive_closure : t -> t

(** Values appearing in each column, keyed by the column's sort: the
    relation's contribution to the active domain. *)
val active_domain : t -> Domain.t

val pp : t Fmt.t

(** Finite carriers for sorts.

    Quantifiers are evaluated over finite domains: a [Domain.t] assigns
    to each sort the (finite) list of values inhabiting it. The [bool]
    sort always has carrier [{false, true}], supplied implicitly. *)

type t

(** The domain assigning an empty carrier to every sort (except
    [bool]). *)
val empty : t

(** [add sort values d] replaces [sort]'s carrier by the deduplicated
    [values]. *)
val add : Sort.t -> Value.t list -> t -> t

(** [extend sort v d] is [add sort (v :: carrier d sort) d], in
    O(log k) for a carrier of k values: [d] itself when [v] is already
    present, otherwise one set insertion and one list rebuild. *)
val extend : Sort.t -> Value.t -> t -> t

val of_list : (Sort.t * Value.t list) list -> t

(** [carrier d sort] is the carrier of [sort] — [{false, true}] for
    [bool], [[]] for unknown sorts. *)
val carrier : t -> Sort.t -> Value.t list

(** O(log k): a set lookup. *)
val mem : t -> Sort.t -> Value.t -> bool

(** Sorts with explicitly assigned carriers. *)
val sorts : t -> Sort.t list

val size : t -> Sort.t -> int

(** [union d1 d2] joins the carriers sort-wise. *)
val union : t -> t -> t

val pp : t Fmt.t

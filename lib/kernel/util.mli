(** Small general-purpose helpers used across the framework. *)

(** [cartesian [l1; ...; ln]] is the list of all [[x1; ...; xn]] with
    [xi] drawn from [li], in lexicographic order; [cartesian [] = [[]]]. *)
val cartesian : 'a list list -> 'a list list

(** All length-[n] tuples over the given list. *)
val tuples : 'a list -> int -> 'a list list

(** Order-preserving deduplication under [eq] (defaults to [=]).
    Quadratic; meant for short lists. *)
val dedup : ?eq:('a -> 'a -> bool) -> 'a list -> 'a list

(** Order-preserving deduplication in O(n) expected time; [hash] must
    be consistent with [eq]. Agrees with {!dedup}. Lists of zero or
    one element are returned as they are, without calling [hash]. *)
val dedup_hashed : eq:('a -> 'a -> bool) -> hash:('a -> int) -> 'a list -> 'a list

(** [zip_exn xs ys] pairs two lists; raises [Invalid_argument] on length
    mismatch. *)
val zip_exn : 'a list -> 'b list -> ('a * 'b) list

val take : int -> 'a list -> 'a list
val sum : int list -> int

(** Fixpoint of a monotone set-expansion step: repeatedly apply [step]
    to the frontier, accumulating states distinct under [eq], until no
    new element appears or [limit] elements have been accumulated.
    Returns the accumulated states and whether the limit truncated the
    exploration. Supplying [hash] (consistent with [eq]) replaces the
    linear visited-set scan with O(1)-expected hash membership without
    changing the result. *)
val bfs_fixpoint :
  eq:('a -> 'a -> bool) ->
  ?hash:('a -> int) ->
  limit:int ->
  step:('a -> 'a list) ->
  'a list ->
  'a list * bool

(** First error wins; otherwise the list of successes in order. *)
val result_all : ('a, 'e) result list -> ('a list, 'e) result

val pp_comma_list : 'a Fmt.t -> 'a list Fmt.t

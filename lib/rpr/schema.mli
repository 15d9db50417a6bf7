(** Database schemas (paper Section 5.1.1):
    [schema SCL ; OPL end-schema] — a list of relation declarations and
    a list of operation (procedure) declarations. *)

open Fdbs_kernel
open Fdbs_logic

type rel_decl = {
  rname : string;
  rsorts : Sort.t list;  (** the unary predicate symbols A1..An, read as sorts *)
}

type proc = {
  pname : string;
  pparams : (string * Sort.t) list;  (** scalar formal parameters Y1..Yn *)
  body : Stmt.t;
}

type t = {
  name : string;
  relations : rel_decl list;
  consts : (string * Sort.t) list;  (** declared individual constants *)
  constraints : (string * Formula.t) list;
      (** named static integrity constraints: closed wffs every
          committed state must satisfy (paper Section 3's static
          consistency, enforced at the representation level) *)
  procs : proc list;
}

val rel_decl : string -> Sort.t list -> rel_decl
val proc : string -> (string * Sort.t) list -> Stmt.t -> proc

val find_relation : t -> string -> rel_decl option
val find_proc : t -> string -> proc option
val find_constraint : t -> string -> Formula.t option

(** Column sorts of a declared relation; raises on unknown names. *)
val sorts_of : t -> string -> Sort.t list

(** A structural fingerprint of the relation declarations — the part of
    the schema a compiled plan depends on. Keys the plan cache per
    schema. *)
val fingerprint : t -> int

(** Structural equality of exactly the footprint {!fingerprint}
    hashes (schema name + relation declarations); the plan cache's
    collision-proof slot comparison. [true] at once on physically
    equal schemas. *)
val plan_equal : t -> t -> bool

(** All sorts mentioned by relations, constants and parameters. *)
val sorts : t -> Sort.t list

(** The first-order signature underlying the schema's wffs: relation
    names as db-predicates; declared constants and the given formal
    [params] as 0-ary function symbols (scalar program variables are
    distinguished constants, paper Section 5.1.1). *)
val signature : ?params:(string * Sort.t) list -> t -> Signature.t

(** The empty instance: every declared relation empty, no scalars. *)
val empty_db : t -> Db.t

(** Context-sensitive well-formedness, the property the paper's
    W-grammar enforces: every relation used in the OPL part is declared
    in the SCL part, writes have declared arity, and every wff is
    well-sorted. Returns the violations. *)
val check : t -> string list

val is_well_formed : t -> bool
val pp : t Fmt.t

(** A relational algebra engine and a compiler from the safe fragment
    of the relational calculus into it.

    The naive evaluator of {!Relcalc} enumerates the full cartesian
    product of the bound variables' carriers; for range-restricted
    bodies the algebra evaluates in time proportional to the relations'
    contents instead (experiments E10 and E19). The compiler covers the
    full safe calculus: existentials become projections over joins,
    negation and range-restricted universals become antijoins.

    Compiled evaluation agrees with the naive evaluator whenever the
    database's active domain is contained in the evaluation domain's
    carriers — the standing invariant of every caller in this
    codebase. *)

open Fdbs_kernel
open Fdbs_logic

(** An argument of a selection or membership test: a column of the
    current row or a variable-free term. *)
type arg =
  | Acol of int
  | Aterm of Term.t

type col_pred =
  | Eq of arg * arg
  | Neq of arg * arg

(** Algebra expressions; columns are positional. *)
type expr =
  | Rel of string  (** contents of a database relation *)
  | Singleton of Term.t list * Sort.t list  (** one tuple of evaluated terms *)
  | Empty of Sort.t list
  | Select of col_pred list * expr
  | Project of int list * expr  (** also permutes/duplicates columns *)
  | Product of expr * expr
  | Union of expr * expr
  | Join of expr list * col_pred list
      (** n-ary equijoin: the inputs' columns concatenated in list
          order, filtered by the predicates. The optimizer introduces
          it; evaluation orders the inputs greedily by live cardinality
          and probes {!Relation.find_by} indexes on the equality links. *)
  | Antijoin of expr * expr * arg list
      (** keep left rows whose [arg] tuple (over the left columns) is
          {e not} in the right subplan *)

val pp : expr Fmt.t
val pp_arg : arg Fmt.t
val pp_preds : col_pred list Fmt.t

(** Column sorts of an expression, given the schema's relation sorts. *)
val sorts_of : rel_sorts:(string -> Sort.t list) -> expr -> Sort.t list

(** Evaluate an algebra expression against a database state. A
    selection over a stored relation is answered from the relation
    rather than by a scan: one membership probe when its ground
    equalities bind every column, otherwise the lookup on the first
    bound column (a range for column 0, the carried column index for
    another). *)
val eval :
  domain:Domain.t -> ?consts:(string * Value.t) list -> Db.t -> expr -> Relation.t

(** The evaluation pieces the differential layer ({!Delta}) re-applies
    to materialized operator outputs: row predicates, antijoin
    membership keys, projection, and the greedy index-aware n-ary join
    over already-evaluated inputs. [Db.t] only feeds ground-term
    valuation. *)

val row_matches :
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  col_pred list ->
  Value.t list ->
  bool

val arg_values :
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  arg list ->
  Value.t list ->
  Value.t list

(** A row's values at [cols], in that order. *)
val project_row : int list -> Value.t list -> Value.t list

(** Project a relation onto columns (which may permute or duplicate).
    [project_rel []] is an emptiness test: [{()}] or [{}]. *)
val project_rel : int list -> Relation.t -> Relation.t

val join_rels :
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  Relation.t list ->
  col_pred list ->
  Relation.t

(** Compile a relational term into an algebra expression; [None] when
    the body falls outside the safe fragment (e.g. a head variable not
    range-restricted, or a vacuous quantifier). *)
val compile : Stmt.rterm -> expr option

(** Like {!compile}, but [Error offender] carries the subformula that
    falls outside the safe fragment — surfaced by [fds explain] and the
    [`Compiled] strategy's structured error. *)
val compile_explain : Stmt.rterm -> (expr, Formula.t) result

(** Compile a closed wff to a 0-ary plan: the wff holds iff the plan
    evaluates to the non-empty (unit) relation. [None] on open or
    unsafe formulas. *)
val compile_wff : Formula.t -> expr option

val compile_wff_explain : Formula.t -> (expr, Formula.t) result

(** Optimize a compiled plan: merge [Select]/[Product] towers into
    n-ary [Join]s, push selections down to their input (through
    [Union] and [Project]), and drop identity projections. Relation
    arities come from the schema; join {e ordering} is chosen at
    evaluation time from live cardinalities. *)
val optimize : rel_arity:(string -> int) -> expr -> expr

(** Evaluate a relational term: [`Compiled] raises a structured
    {!Error.Error} ([Not_compilable]) outside the safe fragment,
    [`Auto] (default) falls back to the naive evaluator. *)
val eval_rterm :
  ?strategy:[ `Naive | `Compiled | `Auto ] ->
  domain:Domain.t ->
  ?consts:(string * Value.t) list ->
  Db.t ->
  Stmt.rterm ->
  Relation.t

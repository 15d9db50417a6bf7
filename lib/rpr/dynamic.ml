(** First-order dynamic logic over RPR programs (paper Section 5.3:
    "to extend K to map wffs of L2 into wffs of L3 ... we would need a
    full programming logic, such as Dynamic Logic (a separate paper will
    explore this possibility)" — implemented here).

    Formulas extend the first-order wffs of L3 with the program
    modalities [⟨p⟩φ] (some outcome of p satisfies φ) and [\[p\]φ]
    (every outcome does), where programs are RPR statements or
    procedure calls. Semantics is over database states through
    {!Semantics.exec}/{!Semantics.call} — Harel-style relational
    semantics instantiated to the paper's own language. *)

open Fdbs_kernel
open Fdbs_logic

type program =
  | Prim of Stmt.t  (** an RPR statement *)
  | Call of string * Term.t list  (** a declared procedure on argument terms *)
  | Pseq of program * program  (** program composition at the logic level *)

type t =
  | Atom of Formula.t  (** an L3 wff evaluated at the current state *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | Forall of Term.var * t  (** over the environment's domain *)
  | Exists of Term.var * t
  | Box of program * t  (** [p]φ: φ holds after every outcome of p *)
  | Diamond of program * t  (** ⟨p⟩φ: some outcome of p satisfies φ *)

let rec pp_program ppf = function
  | Prim s -> Stmt.pp ppf s
  | Call (name, args) ->
    Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") Term.pp) args
  | Pseq (p, q) -> Fmt.pf ppf "%a; %a" pp_program p pp_program q

let rec pp ppf = function
  | Atom f -> Formula.pp ppf f
  | Not f -> Fmt.pf ppf "~%a" pp f
  | And (f, g) -> Fmt.pf ppf "(%a & %a)" pp f pp g
  | Or (f, g) -> Fmt.pf ppf "(%a | %a)" pp f pp g
  | Imp (f, g) -> Fmt.pf ppf "(%a -> %a)" pp f pp g
  | Iff (f, g) -> Fmt.pf ppf "(%a <-> %a)" pp f pp g
  | Forall (v, f) -> Fmt.pf ppf "forall %s:%s. %a" v.Term.vname v.Term.vsort pp f
  | Exists (v, f) -> Fmt.pf ppf "exists %s:%s. %a" v.Term.vname v.Term.vsort pp f
  | Box (p, f) -> Fmt.pf ppf "[%a] %a" pp_program p pp f
  | Diamond (p, f) -> Fmt.pf ppf "<%a> %a" pp_program p pp f

exception Dyn_error of string

(* Outcome states of a program. Quantified variables have been
   substituted into the argument terms by the time programs run. *)
let rec run (env : Semantics.env) (db : Db.t) : program -> Db.t list = function
  | Prim s -> List.map fst (Semantics.exec env s db)
  | Call (name, args) ->
    (match Schema.find_proc env.Semantics.schema name with
     | None -> raise (Dyn_error (Fmt.str "unknown procedure %s" name))
     | Some proc ->
       let values =
         List.map
           (Relcalc.eval_term ~domain:env.Semantics.domain ~consts:env.Semantics.consts
              db)
           args
       in
       Semantics.call env proc values db)
  | Pseq (p, q) -> List.concat_map (fun db' -> run env db' q) (run env db p)

(* Substitute a value for a variable in every atom and argument term. *)
let rec subst_var (v : Term.var) (value : Value.t) (f : t) : t =
  let s = Term.Subst.of_list [ (v, Term.Lit value) ] in
  let rec subst_prog = function
    | Prim stmt -> Prim stmt (* statements use scalar constants, not variables *)
    | Call (name, args) -> Call (name, List.map (Term.subst s) args)
    | Pseq (p, q) -> Pseq (subst_prog p, subst_prog q)
  in
  match f with
  | Atom wff -> Atom (Formula.subst s wff)
  | Not g -> Not (subst_var v value g)
  | And (g, h) -> And (subst_var v value g, subst_var v value h)
  | Or (g, h) -> Or (subst_var v value g, subst_var v value h)
  | Imp (g, h) -> Imp (subst_var v value g, subst_var v value h)
  | Iff (g, h) -> Iff (subst_var v value g, subst_var v value h)
  | Forall (v', g) ->
    if Term.var_equal v v' then Forall (v', g) else Forall (v', subst_var v value g)
  | Exists (v', g) ->
    if Term.var_equal v v' then Exists (v', g) else Exists (v', subst_var v value g)
  | Box (p, g) -> Box (subst_prog p, subst_var v value g)
  | Diamond (p, g) -> Diamond (subst_prog p, subst_var v value g)

(** Truth of a closed dynamic-logic formula at a database state.
    Atoms route through {!Semantics.query} and hence the plan cache:
    the same wff recurring across the states of a {!Dynamic23}
    obligation sweep is compiled once and re-run as an emptiness
    test. *)
let rec holds (env : Semantics.env) (db : Db.t) : t -> bool = function
  | Atom wff -> Semantics.query env db wff
  | Not f -> not (holds env db f)
  | And (f, g) -> holds env db f && holds env db g
  | Or (f, g) -> holds env db f || holds env db g
  | Imp (f, g) -> (not (holds env db f)) || holds env db g
  | Iff (f, g) -> holds env db f = holds env db g
  | Forall (v, f) ->
    List.for_all
      (fun value -> holds env db (subst_var v value f))
      (Domain.carrier env.Semantics.domain v.Term.vsort)
  | Exists (v, f) ->
    List.exists
      (fun value -> holds env db (subst_var v value f))
      (Domain.carrier env.Semantics.domain v.Term.vsort)
  | Box (p, f) -> List.for_all (fun db' -> holds env db' f) (run env db p)
  | Diamond (p, f) -> List.exists (fun db' -> holds env db' f) (run env db p)

(** The standard duality [⟨p⟩φ ≡ ~\[p\]~φ], and the partial-correctness
    reading of tests: [\[P?\]φ ≡ P -> φ] — validated in the test
    suite. *)
let box p f = Box (p, f)

let diamond p f = Diamond (p, f)

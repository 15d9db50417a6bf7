(** The syntactic route to second-to-third level refinement through
    dynamic logic — the possibility the paper defers to "a separate
    paper" (Section 5.3) and {!Fdbs_rpr.Dynamic} supplies.

    Each Q-equation [cond => q(ā, u(p̄, U)) = rhs] translates into a
    dynamic-logic sentence over the current database standing for U:

    {v  ∀vars. K(cond) -> ( ⟨u(p̄)⟩true
                          & (K(rhs)  -> [u(p̄)] K(q)(ā))
                          & (~K(rhs) -> [u(p̄)] ~K(q)(ā)) )  v}

    — the value of q after running the procedure equals the value of
    [rhs] before it, and the procedure is defined (the diamond rules
    out a vacuous box). T3 refines T2 iff every translated sentence
    holds at every reachable database; by construction this agrees with
    the semantic route of {!Check23} (tested on passing and failing
    designs). *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_algebra
open Fdbs_rpr

let ( let* ) = Result.bind

(* The applicative fragment of an algebraic term as an L3 term:
   variables stay free (quantified at the logic level). *)
let rec term_of_aterm : Aterm.t -> (Term.t, string) result = function
  | Aterm.Var v ->
    if Sort.is_state v.Term.vsort then Error "state variable in parameter position"
    else Ok (Term.Var v)
  | Aterm.Val (value, _) -> Ok (Term.Lit value)
  | Aterm.App (f, args) ->
    let* args' = Util.result_all (List.map term_of_aterm args) in
    Ok (Term.App (f, args'))
  | Aterm.Exists _ | Aterm.Forall _ -> Error "quantifier in parameter position"

(* A Boolean algebraic term over queries at the state variable [u_var]
   as an L3 wff through K (queries become their images). *)
let rec wff_of_aterm (k : Interp23.t) (sg2 : Asig.t) (u_var : Term.var) :
  Aterm.t -> (Formula.t, string) result = function
  | Aterm.App ("true", []) -> Ok Formula.True
  | Aterm.App ("false", []) -> Ok Formula.False
  | Aterm.App ("not", [ a ]) ->
    let* a' = wff_of_aterm k sg2 u_var a in
    Ok (Formula.Not a')
  | Aterm.App ("and", [ a; b ]) ->
    let* a' = wff_of_aterm k sg2 u_var a in
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.And (a', b'))
  | Aterm.App ("or", [ a; b ]) ->
    let* a' = wff_of_aterm k sg2 u_var a in
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.Or (a', b'))
  | Aterm.App ("imp", [ a; b ]) ->
    let* a' = wff_of_aterm k sg2 u_var a in
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.Imp (a', b'))
  | Aterm.App ("iff", [ a; b ]) ->
    let* a' = wff_of_aterm k sg2 u_var a in
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.Iff (a', b'))
  | Aterm.Exists (v, b) ->
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.Exists (v, b'))
  | Aterm.Forall (v, b) ->
    let* b' = wff_of_aterm k sg2 u_var b in
    Ok (Formula.Forall (v, b'))
  | Aterm.App (q, args) when Asig.is_query sg2 q ->
    (match List.rev args with
     | Aterm.Var sv :: rev_params when Term.var_equal sv u_var ->
       let* args' = Util.result_all (List.map term_of_aterm (List.rev rev_params)) in
       Interp23.apply_query_terms k q args'
     | _ -> Error (Fmt.str "query %s not applied to the equation's state variable" q))
  | Aterm.App ("eq", [ a; b ]) ->
    (* Boolean equality becomes iff when either side is a wff; otherwise
       term equality. *)
    (match (wff_of_aterm k sg2 u_var a, wff_of_aterm k sg2 u_var b) with
     | Ok a', Ok b' -> Ok (Formula.Iff (a', b'))
     | _ ->
       let* a' = term_of_aterm a in
       let* b' = term_of_aterm b in
       Ok (Formula.Eq (a', b')))
  | t -> Error (Fmt.str "cannot translate %a into an L3 wff" Aterm.pp t)

(** Translate one Q-equation into a closed dynamic-logic sentence; the
    lhs must have the standard shape [q(ā, u(p̄, U))] with [u] a proper
    update (initializer-headed equations translate with the initializer
    called on the current database, which resets it). *)
let of_equation (k : Interp23.t) (sg2 : Asig.t) (eq : Equation.t) :
  (Dynamic.t, string) result =
  match eq.Equation.lhs with
  | Aterm.App (q, args) when Asig.is_query sg2 q ->
    (match List.rev args with
     | state_term :: rev_qparams ->
       let* proc_name, proc_args, u_var =
         match state_term with
         | Aterm.App (u, uargs) when Asig.is_update sg2 u ->
           let* proc =
             match Interp23.find_update k u with
             | Some p -> Ok p
             | None -> Error (Fmt.str "update %s has no procedure" u)
           in
           (match List.rev uargs with
            | Aterm.Var sv :: rev_params when Sort.is_state sv.Term.vsort ->
              let* args' =
                Util.result_all (List.map term_of_aterm (List.rev rev_params))
              in
              Ok (proc, args', sv)
            | [] | _ ->
              (* initializer: no state argument *)
              let* args' = Util.result_all (List.map term_of_aterm uargs) in
              Ok (proc, args', Sdesc.state_var))
         | _ -> Error "lhs state argument is not an update application"
       in
       let program = Dynamic.Call (proc_name, proc_args) in
       let* q_args = Util.result_all (List.map term_of_aterm (List.rev rev_qparams)) in
       let* q_after = Interp23.apply_query_terms k q q_args in
       let* cond' = wff_of_aterm k sg2 u_var eq.Equation.cond in
       let* rhs' = wff_of_aterm k sg2 u_var eq.Equation.rhs in
       let body =
         Dynamic.Imp
           ( Dynamic.Atom cond',
             Dynamic.And
               ( Dynamic.Diamond (program, Dynamic.Atom Formula.True),
                 Dynamic.And
                   ( Dynamic.Imp
                       (Dynamic.Atom rhs', Dynamic.Box (program, Dynamic.Atom q_after)),
                     Dynamic.Imp
                       ( Dynamic.Not (Dynamic.Atom rhs'),
                         Dynamic.Box (program, Dynamic.Not (Dynamic.Atom q_after)) ) ) ) )
       in
       (* quantify the parameter variables (the state variable is the
          implicit current database) *)
       let vars =
         Util.dedup ~eq:Term.var_equal
           (List.filter
              (fun v -> not (Sort.is_state v.Term.vsort))
              (Aterm.free_vars eq.Equation.lhs
              @ Aterm.free_vars eq.Equation.cond
              @ Aterm.free_vars eq.Equation.rhs))
       in
       Ok (List.fold_right (fun v acc -> Dynamic.Forall (v, acc)) vars body)
     | [] -> Error "query with no arguments")
  | _ -> Error "lhs is not a query application (U-equations are not supported)"

type verdict = {
  dyn_equation : string;
  dyn_formula : Dynamic.t;
  dyn_holds : bool;
}

(** Check every Q-equation's dynamic-logic translation at every
    reachable database: the syntactic counterpart of {!Check23.check}.
    The per-database checks of each equation run in parallel over
    [config]'s job count; the verdicts are independent of it. Failures
    come back as structured {!Fdbs_kernel.Error.t} values whose message
    carries the classic string. *)
let check ?(limit = 2_000) ?config (spec : Spec.t) (env : Semantics.env)
    (k : Interp23.t) : (verdict list, Error.t) result =
  let jobs = Option.bind config (fun (c : Config.t) -> c.Config.jobs) in
  let fail m = Result.Error (Error.make Error.Exec Error.Exec_failure m) in
  let env =
    match Option.bind config Config.budget with
    | Some b -> Semantics.with_budget b env
    | None -> env
  in
  let sg2 = spec.Spec.signature in
  match Check23.reachable_dbs env k sg2 ~limit with
  | exception Invalid_argument e -> fail e
  | dbs, _truncated ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (eq : Equation.t) :: rest ->
        (match of_equation k sg2 eq with
         | Error e -> fail (Fmt.str "equation %s: %s" eq.Equation.eq_name e)
         | Ok formula ->
           (* one obligation per equation: its translated sentence over
              every reachable database *)
           let sweep () =
             try
               Pool.map ?jobs (fun db -> Dynamic.holds env db formula) dbs
               |> List.for_all Fun.id
             with Dynamic.Dyn_error e -> invalid_arg e
           in
           let holds =
             if Trace.enabled () then
               Trace.with_span ~cat:"refine"
                 ~args:[ ("equation", eq.Equation.eq_name) ]
                 "dynamic23.obligation"
                 (fun () ->
                   let v = sweep () in
                   Trace.add_attr "verdict" (string_of_bool v);
                   v)
             else sweep ()
           in
           go
             ({ dyn_equation = eq.Equation.eq_name; dyn_formula = formula; dyn_holds = holds }
             :: acc)
             rest)
    in
    go [] spec.Spec.equations

let all_hold (verdicts : verdict list) = List.for_all (fun v -> v.dyn_holds) verdicts

let pp_verdict ppf (v : verdict) =
  Fmt.pf ppf "%s: %s@,  %a" v.dyn_equation
    (if v.dyn_holds then "valid" else "VIOLATED")
    Dynamic.pp v.dyn_formula

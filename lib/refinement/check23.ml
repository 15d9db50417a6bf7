(** Correctness of a second-to-third level refinement (paper Sections
    5.3–5.4), checked semantically.

    Following the paper, K induces a mapping N from universes of L3 into
    finitely generated structures of L2: the domain of sort [state] is
    generated by the update terms, each denoting the database reached by
    running the corresponding procedures from the initializer. T3
    correctly refines T2 iff N(U) is a model of T2 — every conditional
    equation of A2 is valid. The checker verifies this over all
    reachable databases (the finitely generated state carrier) for all
    parameter values drawn from a finite domain, mirroring the paper's
    induction on the length of the generating term. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_algebra
open Fdbs_rpr

type violation = {
  equation : string;
  valuation : (string * string) list;  (** variable ↦ value/db rendering *)
  detail : string;
}

type report = {
  databases : int;  (** distinct reachable databases *)
  truncated : bool;
  mapping_errors : string list;
  violations : violation list;
  checked : int;  (** equation instances checked *)
  exec_error : string option;
}

let ok (r : report) =
  r.mapping_errors = [] && r.violations = [] && r.exec_error = None

let pp_violation ppf (v : violation) =
  Fmt.pf ppf "equation %s violated at [%a]: %s" v.equation
    Fmt.(list ~sep:(any ", ") (fun ppf (k, s) -> Fmt.pf ppf "%s=%s" k s))
    v.valuation v.detail

let pp_report ppf (r : report) =
  if ok r then
    Fmt.pf ppf "T3 correctly refines T2: %d equation instances over %d databases%s"
      r.checked r.databases
      (if r.truncated then " (truncated!)" else "")
  else
    Fmt.pf ppf "@[<v>refinement check FAILED:@,%a%a%a@]"
      Fmt.(list ~sep:cut string)
      r.mapping_errors
      Fmt.(list ~sep:cut pp_violation)
      r.violations
      Fmt.(option string)
      r.exec_error

exception Stop of string

(* All databases reachable from the initializers by procedure calls
   with parameters from the domain, deduplicated. Raises [Stop]. *)
let explore_dbs (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    ~(limit : int) : Db.t list * bool =
  (* the budgeted exec also caps this exploration's distinct states *)
  let limit = Budget.cap_states env.Semantics.budget limit in
  let proc_of u =
    match Interp23.find_update k u with
    | Some p -> p
    | None -> raise (Stop (Fmt.str "update %s has no procedure" u))
  in
  let call name args db =
    match Semantics.call_det env name args db with
    | Ok out -> out
    | Error e -> raise (Stop e.Fdbs_kernel.Error.message)
  in
  let initials =
    List.map
      (fun (o : Asig.op) -> call (proc_of o.Asig.oname) [] (Schema.empty_db env.Semantics.schema))
      (Asig.initializers sg2)
  in
  let step db =
    List.concat_map
      (fun (o : Asig.op) ->
        let carriers = List.map (Domain.carrier env.Semantics.domain) (Asig.param_args o) in
        List.map (fun args -> call (proc_of o.Asig.oname) args db) (Util.cartesian carriers))
      (Asig.transformers sg2)
  in
  Util.bfs_fixpoint ~eq:Db.equal ~hash:Db.hash ~limit ~step initials

(** Exception-safe form of the exploration for external callers. *)
let reachable_dbs (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    ~(limit : int) : Db.t list * bool =
  try explore_dbs env k sg2 ~limit
  with Stop e -> invalid_arg ("Check23.reachable_dbs: " ^ e)

(* Evaluate an L2 algebraic term under K against concrete databases.
   [rho] values the parameter variables; [sigma] values the state
   variables with databases. State-sorted subterms evaluate to
   databases by running procedures. *)
let rec eval_aterm (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    (rho : (Term.var * Value.t) list) (sigma : (Term.var * Db.t) list) (t : Aterm.t) :
  Value.t =
  let as_bool v =
    match Value.to_bool v with
    | Some b -> b
    | None -> raise (Stop "expected a Boolean")
  in
  match t with
  | Aterm.Val (v, _) -> v
  | Aterm.Var v ->
    (match List.find_opt (fun (v', _) -> Term.var_equal v v') rho with
     | Some (_, value) -> value
     | None -> raise (Stop (Fmt.str "unbound variable %s" v.Term.vname)))
  | Aterm.App ("true", []) -> Value.Bool true
  | Aterm.App ("false", []) -> Value.Bool false
  | Aterm.App ("not", [ a ]) ->
    Value.Bool (not (as_bool (eval_aterm env k sg2 rho sigma a)))
  | Aterm.App ("and", [ a; b ]) ->
    Value.Bool
      (as_bool (eval_aterm env k sg2 rho sigma a)
      && as_bool (eval_aterm env k sg2 rho sigma b))
  | Aterm.App ("or", [ a; b ]) ->
    Value.Bool
      (as_bool (eval_aterm env k sg2 rho sigma a)
      || as_bool (eval_aterm env k sg2 rho sigma b))
  | Aterm.App ("imp", [ a; b ]) ->
    Value.Bool
      ((not (as_bool (eval_aterm env k sg2 rho sigma a)))
      || as_bool (eval_aterm env k sg2 rho sigma b))
  | Aterm.App ("iff", [ a; b ]) ->
    Value.Bool
      (as_bool (eval_aterm env k sg2 rho sigma a)
      = as_bool (eval_aterm env k sg2 rho sigma b))
  | Aterm.App ("eq", [ a; b ]) ->
    (* state-sorted equality compares databases (observably) *)
    (match (Atyping.sort_of sg2 a, Atyping.sort_of sg2 b) with
     | Ok sa, Ok _ when Sort.is_state sa ->
       Value.Bool (Db.equal (eval_state env k sg2 rho sigma a) (eval_state env k sg2 rho sigma b))
     | _ ->
       Value.Bool
         (Value.equal (eval_aterm env k sg2 rho sigma a) (eval_aterm env k sg2 rho sigma b)))
  | Aterm.Exists (v, body) ->
    Value.Bool
      (List.exists
         (fun value ->
           as_bool (eval_aterm env k sg2 ((v, value) :: rho) sigma body))
         (Domain.carrier env.Semantics.domain v.Term.vsort))
  | Aterm.Forall (v, body) ->
    Value.Bool
      (List.for_all
         (fun value ->
           as_bool (eval_aterm env k sg2 ((v, value) :: rho) sigma body))
         (Domain.carrier env.Semantics.domain v.Term.vsort))
  | Aterm.App (q, args) when Asig.is_query sg2 q ->
    (match List.rev args with
     | state_arg :: rev_params ->
       let db = eval_state env k sg2 rho sigma state_arg in
       let params =
         List.rev_map (eval_aterm env k sg2 rho sigma) rev_params
       in
       (match Interp23.apply_query k q params with
        | Error e -> raise (Stop e)
        (* routes through the plan cache: each query wff compiles once
           and is re-evaluated as an emptiness test on every reachable
           database of the obligation sweep *)
        | Ok wff -> Value.Bool (Semantics.query env db wff))
     | [] -> raise (Stop (Fmt.str "query %s with no arguments" q)))
  | Aterm.App (f, args) when not (Asig.is_update sg2 f) ->
    (* parameter operator: K(f) = f (requirement (4)) *)
    let values = List.map (eval_aterm env k sg2 rho sigma) args in
    if values = [] then Value.Sym f
    else raise (Stop (Fmt.str "parameter operator %s needs an interpretation" f))
  | Aterm.App (u, _) -> raise (Stop (Fmt.str "state term %s in value position" u))

(* Evaluate a state-sorted term to a database by running procedures. *)
and eval_state (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    (rho : (Term.var * Value.t) list) (sigma : (Term.var * Db.t) list) (t : Aterm.t) :
  Db.t =
  match t with
  | Aterm.Var v ->
    (match List.find_opt (fun (v', _) -> Term.var_equal v v') sigma with
     | Some (_, db) -> db
     | None -> raise (Stop (Fmt.str "unbound state variable %s" v.Term.vname)))
  | Aterm.App (u, args) when Asig.is_update sg2 u ->
    let proc =
      match Interp23.find_update k u with
      | Some p -> p
      | None -> raise (Stop (Fmt.str "update %s has no procedure" u))
    in
    (match List.rev args with
     | [] ->
       (match Semantics.call_det env proc [] (Schema.empty_db env.Semantics.schema) with
        | Ok db -> db
        | Error e -> raise (Stop e.Fdbs_kernel.Error.message))
     | state_arg :: rev_params ->
       let is_initializer =
         match Asig.find_update sg2 u with
         | Some o -> not (List.exists Sort.is_state o.Asig.oargs)
         | None -> false
       in
       if is_initializer then
         let params = List.rev_map (eval_aterm env k sg2 rho sigma) (state_arg :: rev_params) in
         match Semantics.call_det env proc params (Schema.empty_db env.Semantics.schema) with
         | Ok db -> db
         | Error e -> raise (Stop e.Fdbs_kernel.Error.message)
       else
         let db = eval_state env k sg2 rho sigma state_arg in
         let params = List.rev_map (eval_aterm env k sg2 rho sigma) rev_params in
         (match Semantics.call_det env proc params db with
          | Ok db -> db
          | Error e -> raise (Stop e.Fdbs_kernel.Error.message)))
  | _ -> raise (Stop (Fmt.str "expected a state term, got %a" Aterm.pp t))

(** Check one equation instance; [None] when it holds. *)
let check_instance (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    (eq : Equation.t) (rho : (Term.var * Value.t) list)
    (sigma : (Term.var * Db.t) list) : string option =
  let as_bool v = Option.value ~default:false (Value.to_bool v) in
  let cond = eval_aterm env k sg2 rho sigma eq.Equation.cond in
  if not (as_bool cond) then None
  else
    match Atyping.sort_of sg2 eq.Equation.lhs with
    | Ok s when Sort.is_state s ->
      let lhs = eval_state env k sg2 rho sigma eq.Equation.lhs in
      let rhs = eval_state env k sg2 rho sigma eq.Equation.rhs in
      if Db.equal lhs rhs then None
      else Some (Fmt.str "lhs db %a /= rhs db %a" Db.pp lhs Db.pp rhs)
    | Ok _ | Error _ ->
      let lhs = eval_aterm env k sg2 rho sigma eq.Equation.lhs in
      let rhs = eval_aterm env k sg2 rho sigma eq.Equation.rhs in
      if Value.equal lhs rhs then None
      else Some (Fmt.str "lhs %a /= rhs %a" Value.pp lhs Value.pp rhs)

(* One parallel work unit: a single equation under a single parameter
   valuation, swept over every state-variable database assignment. Units
   are independent (each carries its own partial tallies), so {!Pool}
   can run them on any domain; merging them in input order reproduces
   the sequential sweep's violation order and checked count exactly. *)
type unit_result = {
  u_checked : int;
  u_violations : violation list;  (** in sweep order *)
  u_error : string option;
}

let run_unit (env : Semantics.env) (k : Interp23.t) (sg2 : Asig.t)
    (dbs : Db.t list) ((eq : Equation.t), (rho : (Term.var * Value.t) list),
                       (state_vars : Term.var list)) : unit_result =
  let checked = ref 0 in
  let violations = ref [] in
  let error = ref None in
  let sigma_choices = Util.cartesian (List.map (fun _ -> dbs) state_vars) in
  (try
     List.iter
       (fun sigma_values ->
         let sigma = Util.zip_exn state_vars sigma_values in
         incr checked;
         match check_instance env k sg2 eq rho sigma with
         | None -> ()
         | Some detail ->
           violations :=
             {
               equation = eq.Equation.eq_name;
               valuation =
                 List.map
                   (fun (v, value) -> (v.Term.vname, Value.to_string value))
                   rho
                 @ List.map
                     (fun (v, db) -> (v.Term.vname, Fmt.str "%d tuples" (Db.size db)))
                     sigma;
               detail;
             }
             :: !violations)
       sigma_choices
   with Stop e -> error := Some e);
  { u_checked = !checked; u_violations = List.rev !violations; u_error = !error }

(** Run the full second-to-third level refinement check: every equation
    of T2, over every reachable database and all parameter values from
    [env]'s domain. The (equation, parameter-valuation) instances are
    swept in parallel over [config]'s job count (default
    {!Fdbs_kernel.Pool.default_jobs}); results merge deterministically
    in instance order, so the report is independent of the job count.
    [config] may also impose a fresh per-call budget. *)
let check ?(limit = 2_000) ?config (spec : Spec.t) (env : Semantics.env)
    (k : Interp23.t) : report =
  let jobs = Option.bind config (fun (c : Config.t) -> c.Config.jobs) in
  let env =
    match Option.bind config Config.budget with
    | Some b -> Semantics.with_budget b env
    | None -> env
  in
  let sg2 = spec.Spec.signature in
  let mapping_errors = Interp23.check k sg2 env.Semantics.schema in
  if mapping_errors <> [] then
    {
      databases = 0;
      truncated = false;
      mapping_errors;
      violations = [];
      checked = 0;
      exec_error = None;
    }
  else
    match explore_dbs env k sg2 ~limit with
    | exception Stop e ->
      {
        databases = 0;
        truncated = false;
        mapping_errors = [];
        violations = [];
        checked = 0;
        exec_error = Some e;
      }
    | dbs, truncated ->
      let units =
        List.concat_map
          (fun (eq : Equation.t) ->
            let vars = Aterm.free_vars eq.Equation.lhs in
            let param_vars, state_vars =
              List.partition (fun v -> not (Sort.is_state v.Term.vsort)) vars
            in
            let param_carriers =
              List.map
                (fun v -> Domain.carrier env.Semantics.domain v.Term.vsort)
                param_vars
            in
            List.map
              (fun param_values ->
                (eq, Util.zip_exn param_vars param_values, state_vars))
              (Util.cartesian param_carriers))
          spec.Spec.equations
      in
      (* Each (equation, valuation) unit is one proof obligation; its
         span is recorded on whichever {!Pool} domain runs it and
         grafted back in unit order, so the span tree is independent of
         the job count. *)
      let run_obligation (((eq : Equation.t), _, _) as u) =
        if Trace.enabled () then
          Trace.with_span ~cat:"refine"
            ~args:[ ("equation", eq.Equation.eq_name) ]
            "check23.obligation"
            (fun () ->
              let r = run_unit env k sg2 dbs u in
              Trace.add_attr "checked" (string_of_int r.u_checked);
              r)
        else run_unit env k sg2 dbs u
      in
      let results = Pool.map ?jobs run_obligation units in
      {
        databases = List.length dbs;
        truncated;
        mapping_errors = [];
        violations = List.concat_map (fun u -> u.u_violations) results;
        checked = Util.sum (List.map (fun u -> u.u_checked) results);
        exec_error =
          List.fold_left
            (fun acc u -> match acc with Some _ -> acc | None -> u.u_error)
            None results;
      }

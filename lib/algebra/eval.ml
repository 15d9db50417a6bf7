(** Ground query evaluation by conditional term rewriting (paper
    Section 4.2): to answer [q(p̄, t)] for a ground state term [t], find
    the conditional equations whose left-hand side matches, check their
    conditions (recursively evaluating queries), and rewrite to the
    right-hand side — which, by the "simpler expression" discipline,
    interrogates an earlier state of the trace.

    Quantified conditions such as [exists s (takes(s,c,U) = True)]
    enumerate the evaluation domain: the specification's parameter names
    joined with the active domain of the term under evaluation. *)

open Fdbs_kernel
open Fdbs_logic

type error =
  | No_applicable_equation of Aterm.t
      (** no equation's lhs+condition covers this ground query *)
  | Conflicting_equations of Aterm.t * string list
      (** distinct applicable equations produced distinct values *)
  | Fuel_exhausted
      (** rewriting did not terminate within the step budget *)
  | Ill_formed of string

let pp_error ppf = function
  | No_applicable_equation t ->
    Fmt.pf ppf "no applicable equation for %a (specification not sufficiently complete?)"
      Aterm.pp t
  | Conflicting_equations (t, eqs) ->
    Fmt.pf ppf "equations [%a] give conflicting values for %a"
      Fmt.(list ~sep:(any ", ") string) eqs Aterm.pp t
  | Fuel_exhausted -> Fmt.string ppf "rewriting step budget exhausted (circular equations?)"
  | Ill_formed msg -> Fmt.pf ppf "ill-formed term: %s" msg

exception Error of error

let default_fuel = 100_000

(* Collect the values occurring in a ground term, sort-wise. *)
let rec term_active_domain (acc : Domain.t) : Aterm.t -> Domain.t = function
  | Aterm.Val (v, s) ->
    if Sort.is_bool s then acc else Domain.extend s v acc
  | Aterm.App (_, args) -> List.fold_left term_active_domain acc args
  | Aterm.Exists (_, b) | Aterm.Forall (_, b) -> term_active_domain acc b
  | Aterm.Var _ -> acc

(** Evaluation domain for a ground term: base domain of the spec joined
    with the term's active domain. *)
let evaluation_domain (spec : Spec.t) (t : Aterm.t) : Domain.t =
  term_active_domain spec.Spec.base_domain t

let interp_param (spec : Spec.t) name (args : Value.t list) : Value.t =
  match List.assoc_opt name spec.Spec.param_interp with
  | Some f -> f args
  | None ->
    if args = [] then Value.Sym name
    else raise (Error (Ill_formed (Fmt.str "parameter operator %s has no interpretation" name)))

(** Evaluate a ground non-state term to a value. [domain] supplies the
    quantifier ranges (defaults to {!evaluation_domain}); [fuel] bounds
    the number of query unfoldings; [on_step] observes each successful
    query rewrite (target, equation name, value) — the raw material of
    {!explain}. *)
let query ?(fuel = default_fuel) ?domain ?(on_step = fun _ _ _ -> ())
    (spec : Spec.t) (t : Aterm.t) : (Value.t, error) result =
  let sg = spec.Spec.signature in
  let domain = match domain with Some d -> d | None -> evaluation_domain spec t in
  let fuel = ref fuel in
  let val_of_bool b = if b then Value.Bool true else Value.Bool false in
  let as_bool = function
    | Value.Bool b -> b
    | v -> raise (Error (Ill_formed (Fmt.str "expected a Boolean, got %a" Value.pp v)))
  in
  (* Normalize a ground state term: evaluate the parameter arguments of
     each update application to values. *)
  let rec normalize_state (t : Aterm.t) : Aterm.t =
    match t with
    | Aterm.App (u, args) when Asig.is_update sg u ->
      (match Asig.find_update sg u with
       | None -> assert false
       | Some o ->
         let rec split sorts args =
           match (sorts, args) with
           | [], [ st ] -> ([], Some st)
           | [], [] -> ([], None)
           | srt :: sorts, a :: args ->
             let vals, st = split sorts args in
             (Aterm.Val (eval a, srt) :: vals, st)
           | _ ->
             raise (Error (Ill_formed (Fmt.str "update %s applied to wrong arity" u)))
         in
         let vals, st = split (Asig.param_args o) args in
         (match st with
          | None -> Aterm.App (u, vals)
          | Some st -> Aterm.App (u, vals @ [ normalize_state st ])))
    | Aterm.Var _ -> raise (Error (Ill_formed "state term contains a variable"))
    | _ ->
      raise
        (Error (Ill_formed (Fmt.str "expected a ground state term, got %a" Aterm.pp t)))
  (* Evaluate a ground term of non-state sort. *)
  and eval (t : Aterm.t) : Value.t =
    match t with
    | Aterm.Val (v, _) -> v
    | Aterm.Var v ->
      raise (Error (Ill_formed (Fmt.str "free variable %s" v.Term.vname)))
    | Aterm.App ("true", []) -> Value.Bool true
    | Aterm.App ("false", []) -> Value.Bool false
    | Aterm.App ("not", [ a ]) -> val_of_bool (not (as_bool (eval a)))
    | Aterm.App ("and", [ a; b ]) -> val_of_bool (as_bool (eval a) && as_bool (eval b))
    | Aterm.App ("or", [ a; b ]) -> val_of_bool (as_bool (eval a) || as_bool (eval b))
    | Aterm.App ("imp", [ a; b ]) ->
      val_of_bool ((not (as_bool (eval a))) || as_bool (eval b))
    | Aterm.App ("iff", [ a; b ]) -> val_of_bool (as_bool (eval a) = as_bool (eval b))
    | Aterm.App ("eq", [ a; b ]) -> val_of_bool (Value.equal (eval a) (eval b))
    | Aterm.Exists (v, body) ->
      val_of_bool
        (List.exists
           (fun value ->
             as_bool
               (eval (Aterm.subst [ (v, Aterm.Val (value, v.Term.vsort)) ] body)))
           (Domain.carrier domain v.Term.vsort))
    | Aterm.Forall (v, body) ->
      val_of_bool
        (List.for_all
           (fun value ->
             as_bool
               (eval (Aterm.subst [ (v, Aterm.Val (value, v.Term.vsort)) ] body)))
           (Domain.carrier domain v.Term.vsort))
    | Aterm.App (q, args) when Asig.is_query sg q -> eval_query q args
    | Aterm.App (u, _) when Asig.is_update sg u ->
      raise (Error (Ill_formed (Fmt.str "state term %s in value position" u)))
    | Aterm.App (f, args) -> interp_param spec f (List.map eval args)
  and eval_query q args =
    Fault.hit "algebra.eval";
    if !fuel <= 0 then raise (Error Fuel_exhausted);
    decr fuel;
    match Asig.find_query sg q with
    | None -> assert false
    | Some o ->
      let rec split sorts args =
        match (sorts, args) with
        | [], [ st ] -> ([], st)
        | srt :: sorts, a :: args ->
          let vals, st = split sorts args in
          (Aterm.Val (eval a, srt) :: vals, st)
        | _ -> raise (Error (Ill_formed (Fmt.str "query %s applied to wrong arity" q)))
      in
      let vals, st = split (Asig.param_args o) args in
      let st = normalize_state st in
      let target = Aterm.App (q, vals @ [ st ]) in
      let applicable =
        List.filter_map
          (fun (eq : Equation.t) ->
            match Aterm.match_term eq.Equation.lhs target with
            | None -> None
            | Some sub ->
              if as_bool (eval (Aterm.subst sub eq.Equation.cond)) then
                Some (eq.Equation.eq_name, eval (Aterm.subst sub eq.Equation.rhs))
              else None)
          spec.Spec.equations
      in
      (match applicable with
       | [] -> raise (Error (No_applicable_equation target))
       | (eq_name, v) :: rest ->
         if List.for_all (fun (_, v') -> Value.equal v v') rest then begin
           on_step target eq_name v;
           v
         end
         else
           raise
             (Error (Conflicting_equations (target, List.map fst applicable))))
  in
  match eval t with v -> Ok v | exception Error e -> Result.Error e

let query_exn ?fuel ?domain spec t =
  match query ?fuel ?domain spec t with
  | Ok v -> v
  | Error e -> invalid_arg (Fmt.str "Eval.query_exn: %a" pp_error e)

(** One rewriting step of a derivation: the ground query [target] was
    answered [value] through [via]. *)
type step = {
  step_target : Aterm.t;
  step_via : string;  (** the equation applied *)
  step_value : Value.t;
}

let pp_step ppf (s : step) =
  Fmt.pf ppf "%a = %a  [by %s]" Aterm.pp s.step_target Value.pp s.step_value s.step_via

(** Evaluate and return the derivation: every query rewrite performed,
    innermost first — the executable counterpart of the paper's
    "reducing the problem ... to a problem somewhat simpler than the
    original one". *)
let explain ?fuel ?domain (spec : Spec.t) (t : Aterm.t) :
  (Value.t * step list, error) result =
  let steps = ref [] in
  let on_step target via value =
    steps := { step_target = target; step_via = via; step_value = value } :: !steps
  in
  match query ?fuel ?domain ~on_step spec t with
  | Ok v -> Ok (v, List.rev !steps)
  | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)

(** Evaluate query symbol [q] on parameter values [params] in the state
    denoted by [trace]. *)
let query_on_trace ?fuel ?domain (spec : Spec.t) ~(q : string) ~(params : Value.t list)
    (trace : Strace.t) : (Value.t, error) result =
  let sg = spec.Spec.signature in
  match Asig.find_query sg q with
  | None -> Result.Error (Ill_formed (Fmt.str "unknown query %s" q))
  | Some o ->
    let sorts = Asig.param_args o in
    if List.length sorts <> List.length params then
      Result.Error (Ill_formed (Fmt.str "query %s arity mismatch" q))
    else
      let args = List.map2 (fun v s -> Aterm.Val (v, s)) params sorts in
      let t = Aterm.App (q, args @ [ Strace.to_aterm sg trace ]) in
      query ?fuel ?domain spec t

(** Evaluate a Boolean ground term to an OCaml bool. *)
let holds ?fuel ?domain (spec : Spec.t) (t : Aterm.t) : (bool, error) result =
  match query ?fuel ?domain spec t with
  | Ok (Value.Bool b) -> Ok b
  | Ok v -> Result.Error (Ill_formed (Fmt.str "expected Boolean result, got %a" Value.pp v))
  | Error _ as e -> e

(** Algebraic specifications T2 = (L2, A2) (paper Section 4.1): a
    signature, a set of conditional equations, interpretations for the
    parameter operators, and a base domain supplying the parameter
    names of each parameter sort. *)

open Fdbs_kernel

type t = {
  name : string;
  signature : Asig.t;
  equations : Equation.t list;
  base_domain : Domain.t;
      (** carriers of the parameter sorts: the parameter names *)
  param_interp : (string * (Value.t list -> Value.t)) list;
      (** interpretations of non-constant parameter operators *)
}

(** Build a specification. Every 0-ary parameter operator is
    interpreted as the symbolic value of its own name and contributed to
    the base domain; other parameter operators must be interpreted in
    [param_interp]. Equations are sort-checked. *)
let make ?(param_interp = []) ?(base_domain = Domain.empty) ~name ~signature ~equations () :
  (t, string) result =
  let constants =
    List.filter (fun (o : Asig.op) -> o.Asig.oargs = []) signature.Asig.param_ops
  in
  let base_domain =
    List.fold_left
      (fun d (o : Asig.op) ->
        let value =
          match List.assoc_opt o.Asig.oname param_interp with
          | Some f -> f []
          | None -> Value.Sym o.Asig.oname
        in
        Domain.extend o.Asig.ores value d)
      base_domain constants
  in
  let missing =
    List.filter
      (fun (o : Asig.op) ->
        o.Asig.oargs <> [] && not (List.mem_assoc o.Asig.oname param_interp))
      signature.Asig.param_ops
  in
  match missing with
  | o :: _ ->
    Error (Fmt.str "parameter operator %s lacks an interpretation" o.Asig.oname)
  | [] ->
    let rec check_eqs = function
      | [] -> Ok { name; signature; equations; base_domain; param_interp }
      | eq :: rest ->
        (match Equation.check signature eq with
         | Ok () -> check_eqs rest
         | Error e -> Error (Fmt.str "equation %s: %s" eq.Equation.eq_name e))
    in
    check_eqs equations

let make_exn ?param_interp ?base_domain ~name ~signature ~equations () =
  match make ?param_interp ?base_domain ~name ~signature ~equations () with
  | Ok t -> t
  | Error e -> invalid_arg ("Spec.make_exn: " ^ e)

(** Equations whose lhs queries [q] applied to an update [u] state
    argument. *)
let equations_for (spec : t) ~query ~update : Equation.t list =
  List.filter
    (fun eq ->
      match Equation.head_pair spec.signature eq with
      | Some (q, u) -> q = query && u = update
      | None -> false)
    spec.equations

let q_equations (spec : t) =
  List.filter (fun eq -> Equation.kind spec.signature eq = Equation.Q_equation) spec.equations

let u_equations (spec : t) =
  List.filter (fun eq -> Equation.kind spec.signature eq = Equation.U_equation) spec.equations

let pp ppf (spec : t) =
  Fmt.pf ppf "@[<v>algebraic specification %s@,%a@,equations:@,  %a@]" spec.name
    Asig.pp spec.signature
    Fmt.(list ~sep:(any "@,  ") Equation.pp) spec.equations

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
          committed state must satisfy *)
  procs : proc list;
}

let rel_decl name sorts = { rname = name; rsorts = sorts }
let proc name params body = { pname = name; pparams = params; body }

let find_relation (sc : t) name = List.find_opt (fun r -> r.rname = name) sc.relations
let find_proc (sc : t) name = List.find_opt (fun p -> p.pname = name) sc.procs
let find_constraint (sc : t) name = List.assoc_opt name sc.constraints

let sorts_of (sc : t) name =
  match find_relation sc name with
  | Some r -> r.rsorts
  | None -> invalid_arg (Fmt.str "Schema: undeclared relation %s" name)

(** A structural fingerprint of the relation declarations — the part of
    the schema a compiled plan depends on. Used to key the plan cache
    per schema, so two schemas sharing a formula never share a plan.
    It keys in-memory tables only, so [Hashtbl.hash] may hash the
    names. *)
let fingerprint (sc : t) : int =
  let mix h x = (h * 16777619) lxor x in
  let mix_string h s = mix h (Hashtbl.hash s) in
  List.fold_left
    (fun h r -> List.fold_left mix_string (mix_string (mix h 53) r.rname) r.rsorts)
    (mix_string 2166136261 sc.name)
    sc.relations

(** Structural equality of exactly the footprint {!fingerprint} hashes:
    the schema name and the relation declarations. The plan cache
    compares slots with this on every hit, so a fingerprint collision
    between two different schemas can never smuggle a plan across. A
    schema is plan-equal to itself at once. *)
let plan_equal (a : t) (b : t) : bool =
  a == b
  || (String.equal a.name b.name
     && List.equal
          (fun r1 r2 ->
            String.equal r1.rname r2.rname
            && List.equal Sort.equal r1.rsorts r2.rsorts)
          a.relations b.relations)

(** All sorts mentioned by relations, constants and parameters. *)
let sorts (sc : t) : Sort.t list =
  let of_rels = List.concat_map (fun r -> r.rsorts) sc.relations in
  let of_consts = List.map snd sc.consts in
  let of_params = List.concat_map (fun p -> List.map snd p.pparams) sc.procs in
  List.sort_uniq Sort.compare (of_rels @ of_consts @ of_params)

(** The first-order signature underlying the schema's wffs: relation
    names as db-predicates; declared constants and, per procedure,
    formal parameters as 0-ary function symbols (scalar program
    variables are distinguished constants, paper Section 5.1.1). *)
let signature ?(params : (string * Sort.t) list = []) (sc : t) : Signature.t =
  Signature.make ~sorts:(sorts sc)
    ~funcs:(List.map (fun (n, s) -> Signature.const n s) (sc.consts @ params))
    ~preds:(List.map (fun r -> Signature.db_pred r.rname r.rsorts) sc.relations)

(** The empty instance: every declared relation empty, no scalars. *)
let empty_db (sc : t) : Db.t =
  List.fold_left
    (fun db r -> Db.with_relation r.rname (Relation.empty r.rsorts) db)
    Db.empty sc.relations

(** Context-sensitive well-formedness, the property the paper's
    W-grammar enforces: every relation used in the OPL part (read or
    written) is declared in the SCL part, every write has the declared
    arity, and every wff is well-sorted w.r.t. the schema's signature.
    Returns the list of violations. *)
let check (sc : t) : string list =
  let declared = List.map (fun r -> r.rname) sc.relations in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let check_formula sg' where f =
    match Formula.check sg' f with
    | Ok () -> ()
    | Error e -> err "%s: %s" where e
  in
  List.iter
    (fun (p : proc) ->
      let sg' = signature ~params:p.pparams sc in
      let where = Fmt.str "procedure %s" p.pname in
      List.iter
        (fun r ->
          if not (List.mem r declared) then
            err "%s uses undeclared relation %s" where r)
        (Stmt.reads p.body @ Stmt.writes p.body);
      let rec go : Stmt.t -> unit = function
        | Stmt.Skip -> ()
        | Stmt.Scalar_assign (_, t) ->
          (match Term.sort_of sg' t with
           | Ok _ -> ()
           | Error e -> err "%s: %s" where e)
        | Stmt.Rel_assign (r, rt) ->
          (match find_relation sc r with
           | None -> () (* already reported above *)
           | Some rd ->
             let given = List.map (fun v -> v.Term.vsort) rt.Stmt.rt_vars in
             if not (List.equal Sort.equal rd.rsorts given) then
               err "%s: relational term for %s has sorts (%a), declared (%a)" where r
                 Fmt.(list ~sep:(any ", ") Sort.pp) given
                 Fmt.(list ~sep:(any ", ") Sort.pp) rd.rsorts;
             let free = Formula.free_vars rt.Stmt.rt_body in
             let bound = rt.Stmt.rt_vars in
             List.iter
               (fun v ->
                 if not (List.exists (Term.var_equal v) bound) then
                   err "%s: relational term for %s has stray free variable %s" where r
                     v.Term.vname)
               free;
             check_formula sg' where
               (Formula.exists bound rt.Stmt.rt_body))
        | Stmt.Test f -> check_formula sg' where f
        | Stmt.Union (p1, p2) | Stmt.Seq (p1, p2) ->
          go p1;
          go p2
        | Stmt.Star p1 -> go p1
        | Stmt.If (c, p1, p2) ->
          check_formula sg' where c;
          go p1;
          go p2
        | Stmt.While (c, p1) ->
          check_formula sg' where c;
          go p1
        | Stmt.Insert (r, ts) | Stmt.Delete (r, ts) ->
          (match find_relation sc r with
           | None -> ()
           | Some rd ->
             if List.length ts <> List.length rd.rsorts then
               err "%s: %s expects %d arguments, got %d" where r (List.length rd.rsorts)
                 (List.length ts)
             else
               List.iter2
                 (fun t srt ->
                   match Term.sort_of sg' t with
                   | Ok s when Sort.equal s srt -> ()
                   | Ok s -> err "%s: argument of %s has sort %s, expected %s" where r s srt
                   | Error e -> err "%s: %s" where e)
                 ts rd.rsorts)
      in
      go p.body)
    sc.procs;
  let sg = signature sc in
  List.iter
    (fun (cname, f) ->
      let where = Fmt.str "constraint %s" cname in
      match Formula.free_vars f with
      | [] -> check_formula sg where f
      | v :: _ -> err "%s is not closed (free variable %s)" where v.Term.vname)
    sc.constraints;
  (match Signature.find_dup (List.map (fun (p : proc) -> p.pname) sc.procs) with
   | Some d -> err "duplicate procedure %s" d
   | None -> ());
  (match Signature.find_dup declared with
   | Some d -> err "duplicate relation %s" d
   | None -> ());
  (match Signature.find_dup (List.map fst sc.constraints) with
   | Some d -> err "duplicate constraint %s" d
   | None -> ());
  List.rev !errors

let is_well_formed (sc : t) = check sc = []

let pp ppf (sc : t) =
  let pp_rel ppf r =
    Fmt.pf ppf "relation %s(%a)" r.rname Fmt.(list ~sep:(any ", ") Sort.pp) r.rsorts
  in
  let pp_proc ppf (p : proc) =
    Fmt.pf ppf "@[<v 2>proc %s(%a) =@,%a@]" p.pname
      Fmt.(list ~sep:(any ", ") (fun ppf (n, s) -> Fmt.pf ppf "%s:%a" n Sort.pp s))
      p.pparams Stmt.pp p.body
  in
  let pp_constraint ppf (n, f) = Fmt.pf ppf "constraint %s: %a@," n Formula.pp f in
  Fmt.pf ppf "@[<v>schema %s@,%a@,%a%a@,end-schema@]" sc.name
    Fmt.(list ~sep:cut pp_rel) sc.relations
    Fmt.(list ~sep:nop pp_constraint) sc.constraints
    Fmt.(list ~sep:cut pp_proc) sc.procs

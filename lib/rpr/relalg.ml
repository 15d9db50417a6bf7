(** A relational algebra engine and a compiler from the safe fragment
    of the relational calculus into it.

    The naive evaluator of {!Relcalc} enumerates the full cartesian
    product of the bound variables' carriers; for range-restricted
    bodies the algebra evaluates in time proportional to the relations'
    contents instead. The compiler covers the full safe calculus:
    existential quantifiers become projections over joins, and negation
    and (range-restricted) universals become antijoins against compiled
    subplans — the classical reduction from calculus to algebra, which
    the paper's "set-oriented" reading of assignments anticipates
    (experiments E10 and E19).

    Compiled evaluation agrees with the naive evaluator whenever the
    database's active domain is contained in the evaluation domain's
    carriers — the standing invariant of every caller in this codebase
    (the safe-query equivalence theorem needs it: a quantifier ranges
    over carriers naively but over relation contents compiled). *)

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

let pp_arg ppf = function
  | Acol i -> Fmt.pf ppf "#%d" i
  | Aterm t -> Term.pp ppf t

let pp_pred ppf = function
  | Eq (a, b) -> Fmt.pf ppf "%a = %a" pp_arg a pp_arg b
  | Neq (a, b) -> Fmt.pf ppf "%a /= %a" pp_arg a pp_arg b

let pp_preds = Fmt.(list ~sep:(any " & ") pp_pred)

let rec pp ppf = function
  | Rel r -> Fmt.string ppf r
  | Singleton (ts, _) -> Fmt.pf ppf "{(%a)}" Fmt.(list ~sep:(any ", ") Term.pp) ts
  | Empty _ -> Fmt.string ppf "{}"
  | Select (ps, e) -> Fmt.pf ppf "select[%a](%a)" pp_preds ps pp e
  | Project (cols, e) ->
    Fmt.pf ppf "project[%a](%a)" Fmt.(list ~sep:(any ",") int) cols pp e
  | Product (a, b) -> Fmt.pf ppf "(%a x %a)" pp a pp b
  | Union (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Join (inputs, ps) ->
    Fmt.pf ppf "join[%a](%a)" pp_preds ps Fmt.(list ~sep:(any ", ") pp) inputs
  | Antijoin (e, sub, args) ->
    Fmt.pf ppf "antijoin[(%a)](%a, %a)"
      Fmt.(list ~sep:(any ", ") pp_arg)
      args pp e pp sub

(** Column sorts of an expression, given the schema's relation sorts. *)
let rec sorts_of ~(rel_sorts : string -> Sort.t list) : expr -> Sort.t list = function
  | Rel r -> rel_sorts r
  | Singleton (_, sorts) | Empty sorts -> sorts
  | Select (_, e) | Antijoin (e, _, _) -> sorts_of ~rel_sorts e
  | Project (cols, e) ->
    let s = Array.of_list (sorts_of ~rel_sorts e) in
    List.map (fun i -> s.(i)) cols
  | Product (a, b) -> sorts_of ~rel_sorts a @ sorts_of ~rel_sorts b
  | Union (a, _) -> sorts_of ~rel_sorts a
  | Join (inputs, _) -> List.concat_map (sorts_of ~rel_sorts) inputs

(* The pieces of evaluation the differential layer ({!Delta}) reuses on
   its own materializations: term/argument valuation, row predicates,
   projection, and the n-ary join over already-evaluated inputs. All
   term evaluation goes through {!Relcalc.eval_term} against [db]. *)

let term_value ~domain ?consts db t = Relcalc.eval_term ~domain ?consts db t

let arg_value ~domain ?consts db row = function
  | Acol i -> List.nth row i
  | Aterm t -> term_value ~domain ?consts db t

(** The values of [args] over a row — the membership key an
    {!Antijoin} probes with. *)
let arg_values ~domain ?consts db (args : arg list) (row : Value.t list) :
  Value.t list =
  List.map (arg_value ~domain ?consts db row) args

(** Does a row satisfy every selection predicate? *)
let row_matches ~domain ?consts db (ps : col_pred list) (row : Value.t list) :
  bool =
  List.for_all
    (function
      | Eq (a, b) ->
        Value.equal (arg_value ~domain ?consts db row a)
          (arg_value ~domain ?consts db row b)
      | Neq (a, b) ->
        not
          (Value.equal (arg_value ~domain ?consts db row a)
             (arg_value ~domain ?consts db row b)))
    ps

(** A row's values at [cols], in that order. *)
let project_row (cols : int list) (row : Value.t list) : Value.t list =
  let arr = Array.of_list row in
  List.map (fun i -> arr.(i)) cols

(** Project a relation onto [cols] (which may permute/duplicate). The
    nullary projection is an emptiness test: [{()}] when [r] has a row,
    [{}] otherwise, without visiting the rows. *)
let project_rel (cols : int list) (r : Relation.t) : Relation.t =
  match cols with
  | [] -> if Relation.is_empty r then Relation.empty [] else Relation.singleton [] []
  | _ ->
    let out_sorts = List.map (fun i -> List.nth (Relation.sorts r) i) cols in
    Relation.of_list out_sorts (Relation.fold (fun row acc -> project_row cols row :: acc) r [])

(** Greedy index-aware n-ary join over already-evaluated inputs: seed
    with the smallest input, then repeatedly attach the smallest input
    linked to the placed set by an equality predicate (probing its
    column index), falling back to the smallest unlinked input
    (cartesian step). Every predicate is applied as soon as all its
    columns are placed. With no predicates this is the cartesian
    product. [db] only feeds ground-term valuation in predicates. *)
let join_rels ~domain ?consts db (rels : Relation.t list)
    (preds : col_pred list) : Relation.t =
  let term_value t = term_value ~domain ?consts db t in
    let out_sorts = List.concat_map Relation.sorts rels in
    let rels = Array.of_list rels in
    let n = Array.length rels in
    let widths = Array.map Relation.arity rels in
    let offsets = Array.make n 0 in
    for k = 1 to n - 1 do
      offsets.(k) <- offsets.(k - 1) + widths.(k - 1)
    done;
    let total = Array.fold_left ( + ) 0 widths in
    (* pos.(c): position of global column c in the working rows; -1 unplaced *)
    let pos = Array.make total (-1) in
    let placed = Array.make n false in
    let width_placed = ref 0 in
    let in_input k c = c >= offsets.(k) && c < offsets.(k) + widths.(k) in
    let acols p =
      let of_arg = function Acol c -> [ c ] | Aterm _ -> [] in
      match p with Eq (a, b) | Neq (a, b) -> of_arg a @ of_arg b
    in
    let available p = List.for_all (fun c -> pos.(c) >= 0) (acols p) in
    let arg_val (row : Value.t array) = function
      | Acol c -> row.(pos.(c))
      | Aterm t -> term_value t
    in
    let holds row = function
      | Eq (a, b) -> Value.equal (arg_val row a) (arg_val row b)
      | Neq (a, b) -> not (Value.equal (arg_val row a) (arg_val row b))
    in
    let remaining = ref preds in
    let take_available () =
      let av, rest = List.partition available !remaining in
      remaining := rest;
      av
    in
    let links_to k =
      List.exists
        (function
          | Eq (Acol a, Acol b) ->
            (pos.(a) >= 0 && in_input k b) || (pos.(b) >= 0 && in_input k a)
          | Eq _ | Neq _ -> false)
        !remaining
    in
    let rows = ref ([] : Value.t array list) in
    let place k =
      let rel = rels.(k) in
      let link =
        List.find_map
          (function
            | Eq (Acol a, Acol b) when pos.(a) >= 0 && in_input k b ->
              Some (pos.(a), b - offsets.(k))
            | Eq (Acol a, Acol b) when pos.(b) >= 0 && in_input k a ->
              Some (pos.(b), a - offsets.(k))
            | Eq _ | Neq _ -> None)
          !remaining
      in
      (* the first input placed seeds the rows whatever its width: an
         empty 0-ary input (an emptiness test) empties the join *)
      let first = not (Array.exists Fun.id placed) in
      for i = 0 to widths.(k) - 1 do
        pos.(offsets.(k) + i) <- !width_placed + i
      done;
      placed.(k) <- true;
      width_placed := !width_placed + widths.(k);
      let expanded =
        if first then Relation.fold (fun t acc -> Array.of_list t :: acc) rel []
        else
          match link with
          | Some (rowpos, col) ->
            List.concat_map
              (fun row ->
                Relation.fold
                  (fun t acc -> Array.append row (Array.of_list t) :: acc)
                  (Relation.find_by ~col row.(rowpos) rel)
                  [])
              !rows
          | None ->
            List.concat_map
              (fun row ->
                Relation.fold
                  (fun t acc -> Array.append row (Array.of_list t) :: acc)
                  rel [])
              !rows
      in
      let av = take_available () in
      rows :=
        if av = [] then expanded
        else List.filter (fun r -> List.for_all (holds r) av) expanded
    in
    (* predicates with no column at all are constant: decide them now *)
    let constant = take_available () in
    if not (List.for_all (holds [||]) constant) then Relation.empty out_sorts
    else begin
      (* Whether input [a] has fewer tuples than [b], walking both only
         as far as the smaller: a delta join weighs a one-tuple input
         against a whole relation, which [cardinal] would walk. *)
      let fewer a b =
        let rec go sa sb =
          match (sa (), sb ()) with
          | Seq.Nil, Seq.Cons _ -> true
          | _, Seq.Nil -> false
          | Seq.Cons (_, sa), Seq.Cons (_, sb) -> go sa sb
        in
        let seq k = Relation.Tuple_set.to_seq (Relation.tuple_set rels.(k)) in
        go (seq a) (seq b)
      in
      let smallest = function
        | [] -> invalid_arg "Relalg.join: no input"
        | k0 :: rest -> List.fold_left (fun best k -> if fewer k best then k else best) k0 rest
      in
      while Array.exists not placed do
        let unplaced =
          List.filter (fun k -> not placed.(k)) (List.init n Fun.id)
        in
        let linked = List.filter links_to unplaced in
        let pick =
          if !width_placed = 0 || linked = [] then smallest unplaced
          else smallest linked
        in
        place pick
      done;
      (* all columns placed: any leftover predicate is applicable *)
      let leftover = take_available () in
      let final =
        if leftover = [] then !rows
        else List.filter (fun r -> List.for_all (holds r) leftover) !rows
      in
      Relation.of_list out_sorts
        (List.rev_map (fun row -> List.init total (fun c -> row.(pos.(c)))) final)
    end

(** Evaluate an algebra expression against a database state. Terms in
    selections are evaluated via {!Relcalc.eval_term}. *)
let eval ~domain ?consts (db : Db.t) (e : expr) : Relation.t =
  let term_value t = term_value ~domain ?consts db t in
  let arg_value row a = arg_value ~domain ?consts db row a in
  let matches ps row = row_matches ~domain ?consts db ps row in
  (* A relation's rows restricted by constant-column equalities, instead
     of a scan: one membership probe of the tuple they spell when they
     bind every column, otherwise the relation's lookup on the first
     bound column. The other predicates filter the result. The probe
     searches the tuple set rather than calling [Relation.mem], whose
     hash table costs O(n) for each version probed more than 16
     times, and a store written between reads makes many versions. *)
  let indexed_select ps (rel : Relation.t) : Relation.t =
    let ground = function
      | Eq (Acol i, Aterm t) | Eq (Aterm t, Acol i) -> Some (i, t)
      | Eq _ | Neq _ -> None
    in
    match List.filter_map ground ps with
    | [] -> Relation.filter (fun row -> matches ps row) rel
    | (col, t) :: _ as keys -> (
      let rec spelled i =
        if i = Relation.arity rel then Some []
        else
          match List.assoc_opt i keys with
          | None -> None
          | Some t -> Option.map (fun tu -> term_value t :: tu) (spelled (i + 1))
      in
      let rows =
        match spelled 0 with
        | Some tu when Relation.Tuple_set.mem tu (Relation.tuple_set rel) -> Relation.singleton (Relation.sorts rel) tu
        | Some _ -> Relation.empty (Relation.sorts rel)
        | None -> Relation.find_by ~col (term_value t) rel
      in
      match List.filter (fun p -> ground p <> Some (col, t)) ps with
      | [] -> rows
      | rest -> Relation.filter (fun row -> matches rest row) rows)
  in
  let rec go : expr -> Relation.t = function
    | Rel r -> Db.relation_exn db r
    | Singleton (ts, sorts) -> Relation.of_list sorts [ List.map term_value ts ]
    | Empty sorts -> Relation.empty sorts
    | Select (ps, Rel r) -> indexed_select ps (Db.relation_exn db r)
    | Select (ps, e) -> Relation.filter (fun row -> matches ps row) (go e)
    | Project (cols, e) -> project_rel cols (go e)
    | Product (a, b) ->
      let ra = go a and rb = go b in
      Relation.fold
        (fun row_a acc ->
          Relation.fold (fun row_b acc -> Relation.add (row_a @ row_b) acc) rb acc)
        ra
        (Relation.empty (Relation.sorts ra @ Relation.sorts rb))
    | Union (a, b) -> Relation.union (go a) (go b)
    | Join (inputs, preds) -> join_rels ~domain ?consts db (List.map go inputs) preds
    | Antijoin (e, sub, args) ->
      let target = go sub in
      Relation.filter
        (fun row -> not (Relation.mem (List.map (arg_value row) args) target))
        (go e)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Compilation from the safe calculus                                  *)
(* ------------------------------------------------------------------ *)

(* The offending subformula travels with the failure so the structured
   error (and `fds explain`) can point at it. *)
exception Not_compilable of Formula.t

(* Clause literals of the positive-structure DNF: quantified subformulas
   stay opaque and are compiled recursively on their free variables. *)
type literal =
  | Lpos of string * Term.t list
  | Lneg of string * Term.t list
  | Leq of Term.t * Term.t
  | Lneq of Term.t * Term.t
  | Lexists of Term.var * Formula.t  (** a positive [∃v. g] *)
  | Lnegsub of Formula.t  (** a negated quantified subformula *)

(* Disjunctive normal form over the propositional structure, treating
   quantified subformulas as literals. A positive [∀v. g] is read as
   [¬∃v. ¬g] (an antijoin after compilation); a negated [∀v. g] as
   [∃v. ¬g]. Raises [Not_compilable] past [max_clauses]. *)
let dnf ?(max_clauses = 512) (f : Formula.t) : literal list list =
  let rec pos = function
    | Formula.True -> [ [] ]
    | Formula.False -> []
    | Formula.Pred (r, args) -> [ [ Lpos (r, args) ] ]
    | Formula.Eq (a, b) -> [ [ Leq (a, b) ] ]
    | Formula.Not g -> neg g
    | Formula.And (g, h) ->
      let dg = pos g and dh = pos h in
      let product = List.concat_map (fun cg -> List.map (fun ch -> cg @ ch) dh) dg in
      if List.length product > max_clauses then raise (Not_compilable f) else product
    | Formula.Or (g, h) ->
      let d = pos g @ pos h in
      if List.length d > max_clauses then raise (Not_compilable f) else d
    | Formula.Imp (g, h) -> pos (Formula.Or (Formula.Not g, h))
    | Formula.Iff (g, h) ->
      pos (Formula.And (Formula.Imp (g, h), Formula.Imp (h, g)))
    | Formula.Exists (v, g) -> [ [ Lexists (v, g) ] ]
    | Formula.Forall (v, g) ->
      [ [ Lnegsub (Formula.Exists (v, Formula.Not g)) ] ]
  and neg = function
    | Formula.True -> []
    | Formula.False -> [ [] ]
    | Formula.Pred (r, args) -> [ [ Lneg (r, args) ] ]
    | Formula.Eq (a, b) -> [ [ Lneq (a, b) ] ]
    | Formula.Not g -> pos g
    | Formula.And (g, h) -> pos (Formula.Or (Formula.Not g, Formula.Not h))
    | Formula.Or (g, h) -> pos (Formula.And (Formula.Not g, Formula.Not h))
    | Formula.Imp (g, h) -> pos (Formula.And (g, Formula.Not h))
    | Formula.Iff (g, h) ->
      pos (Formula.Or (Formula.And (g, Formula.Not h), Formula.And (h, Formula.Not g)))
    | Formula.Exists (v, g) -> [ [ Lnegsub (Formula.Exists (v, g)) ] ]
    | Formula.Forall (v, g) -> [ [ Lexists (v, Formula.Not g) ] ]
  in
  pos f

let var_mem v vs = List.exists (Term.var_equal v) vs

(* The clause as a formula again — [Not_compilable] offenders point at
   it rather than at a synthetic placeholder. *)
let formula_of_lits (lits : literal list) : Formula.t =
  Formula.conj
    (List.map
       (function
         | Lpos (r, args) -> Formula.Pred (r, args)
         | Lneg (r, args) -> Formula.Not (Formula.Pred (r, args))
         | Leq (a, b) -> Formula.Eq (a, b)
         | Lneq (a, b) -> Formula.Not (Formula.Eq (a, b))
         | Lexists (v, g) -> Formula.Exists (v, g)
         | Lnegsub g -> Formula.Not g)
       lits)

let fresh_var (avoid : Term.var list) (v : Term.var) : Term.var =
  let rec pick i =
    let cand = { v with Term.vname = Fmt.str "%s~%d" v.Term.vname i } in
    if var_mem cand avoid then pick (i + 1) else cand
  in
  if var_mem v avoid then pick 0 else v

(* Compile a body with output columns [head], in order. Every head
   variable — and every variable an antijoin or selection needs — must
   be range-restricted: bound by a positive atom, a compiled positive
   subformula, an equality with a ground term, or an equality chain to
   such a variable. *)
let rec compile_body (head : Term.var list) (f : Formula.t) : expr =
  let head_sorts = List.map (fun v -> v.Term.vsort) head in
  match dnf f with
  | [] -> Empty head_sorts
  | c :: rest ->
    List.fold_left
      (fun acc clause -> Union (acc, compile_clause head clause))
      (compile_clause head c)
      rest

(* [∃v. g] as project-over-join: compile [g] with [v] as an extra
   output column, then drop it. A vacuous quantifier (v not free in g)
   depends on the carrier being non-empty — not range-restricted.

   [ctx] carries the enclosing clause's positive context (atoms and
   ground equalities): conjoining it under the quantifier — after
   alpha-renaming [v] away from its variables — keeps subformulas like
   [∃s2. TAKES(s2, c) & ¬OFFERED(c') ] range-restricted when the
   restriction of a free variable comes from outside the quantifier.
   Rows joined with the outer clause all satisfy [ctx], so the
   conjunction does not change the clause's meaning. *)
and compile_exists ~(ctx : Formula.t list) (v : Term.var) (g : Formula.t) :
  Term.var list * expr =
  if not (var_mem v (Formula.free_vars g)) then
    raise (Not_compilable (Formula.Exists (v, g)));
  (* Prefer the standalone subplan: when [g] restricts its own free
     variables the plan is independent of the enclosing clause and
     usually far smaller — [∃s2. TAKES(s2, c)] projects TAKES to its
     course column instead of re-joining the outer relations. Fall back
     to conjoining [ctx] only when the standalone body leaves a free
     variable unrestricted. *)
  match
    let fvs = Formula.free_vars (Formula.Exists (v, g)) in
    (fvs, compile_body (fvs @ [ v ]) g)
  with
  | fvs, e -> (fvs, Project (List.init (List.length fvs) Fun.id, e))
  | exception Not_compilable _ -> compile_exists_in_ctx ~ctx v g

and compile_exists_in_ctx ~(ctx : Formula.t list) (v : Term.var) (g : Formula.t)
  : Term.var list * expr =
  if ctx = [] then raise (Not_compilable (Formula.Exists (v, g)));
  let ctx_fvs = List.concat_map Formula.free_vars ctx in
  let v, g =
    if var_mem v ctx_fvs then begin
      let v' = fresh_var (ctx_fvs @ Formula.free_vars g) v in
      (v', Formula.subst (Term.Subst.of_list [ (v, Term.Var v') ]) g)
    end
    else (v, g)
  in
  let g = Formula.conj (g :: ctx) in
  let fvs = Formula.free_vars (Formula.Exists (v, g)) in
  let e = compile_body (fvs @ [ v ]) g in
  (fvs, Project (List.init (List.length fvs) Fun.id, e))

and compile_clause (head : Term.var list) (lits : literal list) : expr =
  let is_var = function Term.Var _ -> true | Term.App _ | Term.Lit _ -> false in
  (* The clause's positive context, pushed into quantified subformulas
     so their free variables inherit the clause's range restriction. *)
  let ctx =
    List.filter_map
      (function
        | Lpos (r, args) -> Some (Formula.Pred (r, args))
        | Leq (Term.Var x, t) when (not (is_var t)) && Term.is_ground t ->
          Some (Formula.Eq (Term.Var x, t))
        | Leq (t, Term.Var x) when (not (is_var t)) && Term.is_ground t ->
          Some (Formula.Eq (Term.Var x, t))
        | _ -> None)
      lits
  in
  (* Positive binding sources: atoms over database relations, and
     compiled positive subformulas binding their free variables. *)
  let positives =
    List.filter_map
      (function
        | Lpos (r, args) -> Some (args, Rel r)
        | Lexists (v, g) ->
          let fvs, e = compile_exists ~ctx v g in
          Some (List.map (fun v -> Term.Var v) fvs, e)
        | Lneg _ | Leq _ | Lneq _ | Lnegsub _ -> None)
      lits
  in
  let bindings : (Term.var * int) list ref = ref [] in
  let selects : col_pred list ref = ref [] in
  let offset = ref 0 in
  let col_of v =
    match List.find_opt (fun (v', _) -> Term.var_equal v v') !bindings with
    | Some (_, c) -> Some c
    | None -> None
  in
  let base =
    List.fold_left
      (fun acc (args, src) ->
        let here = !offset in
        List.iteri
          (fun i arg ->
            let col = here + i in
            match arg with
            | Term.Var v ->
              (match col_of v with
               | Some col0 -> selects := Eq (Acol col, Acol col0) :: !selects
               | None -> bindings := (v, col) :: !bindings)
            | t ->
              if not (Term.is_ground t) then raise (Not_compilable (Formula.Pred ("", [ t ])));
              selects := Eq (Acol col, Aterm t) :: !selects)
          args;
        offset := here + List.length args;
        match acc with None -> Some src | Some e -> Some (Product (e, src)))
      None positives
  in
  (* Equalities binding variables to ground terms. *)
  let ground_eqs =
    List.filter_map
      (function
        | Leq (Term.Var v, t) when (not (is_var t)) && Term.is_ground t -> Some (v, t)
        | Leq (t, Term.Var v) when (not (is_var t)) && Term.is_ground t -> Some (v, t)
        | _ -> None)
      lits
  in
  (* Variables bound only by a ground equality become singleton columns
     appended to the product. *)
  let extra_cols = ref [] in
  List.iter
    (fun (v, t) ->
      if col_of v = None && not (List.exists (fun (v', _) -> Term.var_equal v v') !extra_cols)
      then extra_cols := (v, t) :: !extra_cols)
    ground_eqs;
  let extra_cols = List.rev !extra_cols in
  let base =
    match (base, extra_cols) with
    | None, [] ->
      if head = [] then Singleton ([], [])
      else raise (Not_compilable (formula_of_lits lits))
    | None, cols ->
      Singleton (List.map snd cols, List.map (fun (v, _) -> v.Term.vsort) cols)
    | Some e, [] -> e
    | Some e, cols ->
      Product
        (e, Singleton (List.map snd cols, List.map (fun (v, _) -> v.Term.vsort) cols))
  in
  List.iteri (fun i (v, _) -> bindings := (v, !offset + i) :: !bindings) extra_cols;
  (* Propagate bindings along variable-variable equality chains: in
     [R(x) & x = y], [y] shares [x]'s column. *)
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (function
        | Leq (Term.Var v, Term.Var w) ->
          (match (col_of v, col_of w) with
           | Some c, None ->
             bindings := (w, c) :: !bindings;
             progress := true
           | None, Some c ->
             bindings := (v, c) :: !bindings;
             progress := true
           | _ -> ())
        | _ -> ())
      lits
  done;
  let arg_of (t : Term.t) : arg =
    match t with
    | Term.Var v ->
      (match col_of v with
       | Some c -> Acol c
       | None -> raise (Not_compilable (Formula.Eq (t, t))))
    | t ->
      if Term.is_ground t then Aterm t else raise (Not_compilable (Formula.Eq (t, t)))
  in
  (* Remaining equality/disequality literals become selections. *)
  List.iter
    (function
      | Leq (a, b) ->
        (* ground equalities consumed as singleton bindings are
           tautological on their own column; a var-var equality whose
           sides share a column (chain propagation) likewise *)
        let used_ground v t =
          (not (is_var t))
          && List.exists
               (fun (v', t') -> Term.var_equal v v' && Term.equal t t')
               extra_cols
        in
        let used =
          match (a, b) with
          | Term.Var v, Term.Var w -> col_of v = col_of w && col_of v <> None
          | Term.Var v, t -> used_ground v t
          | t, Term.Var v -> used_ground v t
          | _ -> false
        in
        if not used then selects := Eq (arg_of a, arg_of b) :: !selects
      | Lneq (a, b) -> selects := Neq (arg_of a, arg_of b) :: !selects
      | Lpos _ | Lneg _ | Lexists _ | Lnegsub _ -> ())
    lits;
  let with_selects = if !selects = [] then base else Select (!selects, base) in
  (* Negated atoms and negated subformulas become antijoins; all their
     free variables must be bound. *)
  let with_antijoins =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Lneg (r, args) -> Antijoin (acc, Rel r, List.map arg_of args)
        | Lnegsub (Formula.Exists (v, h)) ->
          (* the subplan also gets the clause's positive context: every
             outer row tested by the antijoin satisfies it, so the
             membership test is unchanged while the subformula's free
             variables stay range-restricted *)
          let fvs, sub = compile_exists ~ctx v h in
          let args =
            List.map
              (fun v ->
                match col_of v with
                | Some c -> Acol c
                | None -> raise (Not_compilable (Formula.Exists (v, h))))
              fvs
          in
          Antijoin (acc, sub, args)
        | Lnegsub g -> raise (Not_compilable g)
        | Lpos _ | Leq _ | Lneq _ | Lexists _ -> acc)
      with_selects lits
  in
  let cols =
    List.map
      (fun v ->
        match col_of v with
        | Some c -> c
        | None -> raise (Not_compilable (formula_of_lits lits)))
      head
  in
  Project (cols, with_antijoins)

(* Distinct head variables, or the compiled projection would silently
   diverge from the naive evaluator's per-position enumeration. *)
let check_head (vars : Term.var list) =
  let rec distinct = function
    | [] -> true
    | v :: rest -> (not (var_mem v rest)) && distinct rest
  in
  if not (distinct vars) then
    raise (Not_compilable (Formula.conj []))

(** Compile a relational term; [Error offender] points at the
    subformula that falls outside the safe fragment. *)
let compile_explain (rt : Stmt.rterm) : (expr, Formula.t) result =
  match
    check_head rt.Stmt.rt_vars;
    compile_body rt.Stmt.rt_vars rt.Stmt.rt_body
  with
  | e -> Ok e
  | exception Not_compilable offender -> Error offender

let compile (rt : Stmt.rterm) : expr option =
  Result.to_option (compile_explain rt)

(** Compile a closed wff to a 0-ary plan: the wff holds iff the plan
    evaluates to the non-empty (unit) relation. *)
let compile_wff_explain (f : Formula.t) : (expr, Formula.t) result =
  if Formula.free_vars f <> [] then Error f
  else
    match compile_body [] f with
    | e -> Ok e
    | exception Not_compilable offender -> Error offender

let compile_wff (f : Formula.t) : expr option =
  Result.to_option (compile_wff_explain f)

(* ------------------------------------------------------------------ *)
(* The optimizer                                                       *)
(* ------------------------------------------------------------------ *)

(** Optimize a compiled plan: merge [Select]/[Product] towers into
    n-ary [Join]s, push single-input selections down to their input
    (through [Union] and [Project]), and drop identity projections.
    Relation arities come from the schema; join {e ordering} is chosen
    at evaluation time from live cardinalities. *)
let optimize ~(rel_arity : string -> int) (e : expr) : expr =
  let rec arity = function
    | Rel r -> rel_arity r
    | Singleton (ts, _) -> List.length ts
    | Empty sorts -> List.length sorts
    | Select (_, e) | Antijoin (e, _, _) -> arity e
    | Project (cols, _) -> List.length cols
    | Product (a, b) -> arity a + arity b
    | Union (a, _) -> arity a
    | Join (inputs, _) -> Util.sum (List.map arity inputs)
  in
  let shift_arg off = function Acol i -> Acol (i + off) | a -> a in
  let shift off = function
    | Eq (a, b) -> Eq (shift_arg off a, shift_arg off b)
    | Neq (a, b) -> Neq (shift_arg off a, shift_arg off b)
  in
  let acols p =
    let of_arg = function Acol c -> [ c ] | Aterm _ -> [] in
    match p with Eq (a, b) | Neq (a, b) -> of_arg a @ of_arg b
  in
  (* Flatten a Select/Product tower into leaves (with their global
     column offsets) and the predicates over the concatenated columns. *)
  let rec flatten off e (leaves, preds) =
    match e with
    | Product (a, b) ->
      let leaves, preds = flatten off a (leaves, preds) in
      flatten (off + arity a) b (leaves, preds)
    | Select (ps, inner) -> flatten off inner (leaves, List.map (shift off) ps @ preds)
    | leaf -> ((off, arity leaf, leaf) :: leaves, preds)
  in
  let rec go e =
    match e with
    | Rel _ | Singleton _ | Empty _ -> e
    | Union (a, b) -> Union (go a, go b)
    | Project (cols, e1) ->
      let e1 = go e1 in
      (* compose consecutive projections, then drop the identity *)
      let cols, e1 =
        match e1 with
        | Project (inner, e2) ->
          let arr = Array.of_list inner in
          (List.map (fun i -> arr.(i)) cols, e2)
        | _ -> (cols, e1)
      in
      if cols = List.init (arity e1) Fun.id then e1 else Project (cols, e1)
    | Antijoin (l, r, args) -> Antijoin (go l, go r, args)
    | Join (inputs, preds) -> Join (List.map go inputs, preds)
    | Select _ | Product _ ->
      let leaves, preds = flatten 0 e ([], []) in
      let leaves = List.rev leaves in
      (* attach each predicate to the single leaf covering all its
         columns, if any, by the leaf's position: a 0-ary leaf shares
         its offset with the leaf after it. Constant predicates stay
         global. *)
      let local_of p =
        match acols p with
        | [] -> None
        | cs ->
          List.find_mapi
            (fun k (off, w, _) ->
              if List.for_all (fun c -> c >= off && c < off + w) cs then Some (k, off)
              else None)
            leaves
      in
      let local, global =
        List.partition_map
          (fun p ->
            match local_of p with
            | Some (k, off) -> Left (k, shift (-off) p)
            | None -> Right p)
          preds
      in
      let optimized_leaves =
        List.mapi
          (fun k (_, _, leaf) ->
            let ps = List.filter_map (fun (k', p) -> if k' = k then Some p else None) local in
            push ps leaf)
          leaves
      in
      (match optimized_leaves with
       | [ single ] -> if global = [] then single else Select (global, single)
       | several -> Join (several, global))
  (* Push localized predicates into a leaf: through Union branches and
     Project column maps; otherwise leave a Select at the leaf. *)
  and push ps leaf =
    if ps = [] then go leaf
    else
      match leaf with
      | Union (a, b) -> Union (go (Select (ps, a)), go (Select (ps, b)))
      | Project (cols, e1) ->
        let arr = Array.of_list cols in
        let remap_arg = function Acol i -> Acol arr.(i) | a -> a in
        let remap = function
          | Eq (a, b) -> Eq (remap_arg a, remap_arg b)
          | Neq (a, b) -> Neq (remap_arg a, remap_arg b)
        in
        go (Project (cols, Select (List.map remap ps, e1)))
      | leaf -> Select (ps, go leaf)
  in
  go e

(** Evaluate a relational term, preferring the compiled algebra and
    falling back to naive enumeration. *)
let eval_rterm ?(strategy = `Auto) ~domain ?consts (db : Db.t) (rt : Stmt.rterm) :
  Relation.t =
  Fault.hit "relalg.eval";
  let naive () = Relcalc.eval_rterm_naive ~domain ?consts db rt in
  match strategy with
  | `Naive -> naive ()
  | `Compiled ->
    (match compile_explain rt with
     | Ok e -> eval ~domain ?consts db e
     | Error offender ->
       Error.raise_error Error.Exec
         (Error.Not_compilable (Formula.to_string offender))
         (Fmt.str "body not compilable: %a falls outside the safe fragment"
            Formula.pp offender))
  | `Auto ->
    (match compile rt with
     | Some e -> eval ~domain ?consts db e
     | None -> naive ())

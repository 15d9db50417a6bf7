(** Differential maintenance for the relational algebra.

    A {!t} is the exact difference between two database states:
    per-relation insert and delete sets (inserts disjoint from the
    before-state, deletes contained in it), plus a flag recording
    whether any scalar changed. {!of_dbs} computes it from a [Txn]
    snapshot/final pair in time proportional to the {e changed}
    relations — unchanged relations are shared by reference across
    commits and skipped by physical equality.

    A {!node} is a materialization of a compiled {!Relalg} plan: the
    evaluated output of every operator in the tree. {!advance} pushes a
    delta through the materialization using the classic ΔQ(R ⊎ ΔR)
    rewrites — per-operator rules for select, project, product, union,
    n-ary join and antijoin — returning the updated materialization
    together with the exact insert/delete sets of the plan's output.
    Work scales with the delta (and the derivations it actually
    triggers), not with the database.

    When a rule does not apply — today, when a scalar changed, since
    ground terms inside selections and singletons read scalars through
    {!Relcalc.eval_term} — {!advance} raises {!Not_incremental} and the
    caller falls back to full re-evaluation, mirroring the planner's
    [Not_compilable] pattern. *)

open Fdbs_kernel

module SMap = Db.SMap

type t = {
  inserts : Relation.t SMap.t;  (** disjoint from the before-state *)
  deletes : Relation.t SMap.t;  (** contained in the before-state *)
  scalars_changed : bool;
}

let empty = { inserts = SMap.empty; deletes = SMap.empty; scalars_changed = false }

let is_empty (d : t) =
  SMap.is_empty d.inserts && SMap.is_empty d.deletes && not d.scalars_changed

let inserts (d : t) name ~sorts : Relation.t =
  match SMap.find_opt name d.inserts with
  | Some r -> r
  | None -> Relation.empty sorts

let deletes (d : t) name ~sorts : Relation.t =
  match SMap.find_opt name d.deletes with
  | Some r -> r
  | None -> Relation.empty sorts

(** Relation names touched by the delta, sorted. *)
let touches (d : t) : string list =
  let add name _ acc = if List.mem name acc then acc else name :: acc in
  SMap.fold add d.deletes (SMap.fold add d.inserts []) |> List.sort compare

(** Total number of inserted plus deleted tuples. *)
let cardinal (d : t) : int =
  let sum m = SMap.fold (fun _ r acc -> acc + Relation.cardinal r) m 0 in
  sum d.inserts + sum d.deletes

(** Tuples [r] inserted into (deleted from) relation [name]. *)
let inserted name r = { empty with inserts = SMap.singleton name r }
let deleted name r = { empty with deletes = SMap.singleton name r }

(** The difference rebinding one relation makes: nothing for a shared
    value, a diff of the two extensions otherwise. *)
let of_relation name ~(before : Relation.t) ~(after : Relation.t) : t =
  if before == after then empty
  else
    let side r = if Relation.is_empty r then SMap.empty else SMap.singleton name r in
    {
      inserts = side (Relation.diff after before);
      deletes = side (Relation.diff before after);
      scalars_changed = false;
    }

let scalars_differ (before : Db.t) (after : Db.t) =
  (not (before.Db.scalars == after.Db.scalars))
  && not (SMap.equal Value.equal before.Db.scalars after.Db.scalars)

(** [d] with its scalar flag settled by comparing the scalars of
    [before] and [after] directly. *)
let with_scalars ~(before : Db.t) ~(after : Db.t) (d : t) : t =
  let changed = scalars_differ before after in
  if Bool.equal changed d.scalars_changed then d else { d with scalars_changed = changed }

(* The last delta a commit recorded, with its two states. *)
let remembered : (Db.t * Db.t * t) option Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> None)

let remember ~(before : Db.t) ~(after : Db.t) (d : t) =
  Stdlib.Domain.DLS.set remembered (Some (before, after, d))

(** The exact difference taking [before] to [after]. Relations shared
    by reference between the two states are skipped without comparison:
    [Txn] commits rebind only the updated names, so this is O(changed
    relations), not O(db). *)
let of_dbs ~(before : Db.t) ~(after : Db.t) : t =
  match Stdlib.Domain.DLS.get remembered with
  | Some (b, a, d) when b == before && a == after -> d
  | _ ->
    let inserts = ref SMap.empty and deletes = ref SMap.empty in
    SMap.iter
      (fun name ra ->
        match SMap.find_opt name before.Db.relations with
        | Some rb when rb == ra -> ()
        | Some rb ->
          let ins = Relation.diff ra rb and del = Relation.diff rb ra in
          if not (Relation.is_empty ins) then inserts := SMap.add name ins !inserts;
          if not (Relation.is_empty del) then deletes := SMap.add name del !deletes
        | None ->
          if not (Relation.is_empty ra) then inserts := SMap.add name ra !inserts)
      after.Db.relations;
    SMap.iter
      (fun name rb ->
        if (not (SMap.mem name after.Db.relations)) && not (Relation.is_empty rb)
        then deletes := SMap.add name rb !deletes)
      before.Db.relations;
    { inserts = !inserts; deletes = !deletes; scalars_changed = scalars_differ before after }

(** Apply the relational part of a delta to a state (scalars are not
    carried by a delta and pass through unchanged). Each written
    relation is patched, so it keeps its column indexes and text. *)
let apply (d : t) (db : Db.t) : Db.t =
  SMap.fold
    (fun name (ins, del) db ->
      match (Db.relation db name, ins) with
      | Some r, _ ->
        let side = Option.value ~default:(Relation.empty (Relation.sorts r)) in
        Db.with_relation name (Relation.patch ~ins:(side ins) ~del:(side del) r) db
      | None, Some ins -> Db.with_relation name ins db
      | None, None -> db)
    (SMap.merge (fun _ ins del -> Some (ins, del)) d.inserts d.deletes)
    db

(** Sequential composition: the delta of applying [d1] then [d2].
    Exact under the disjointness invariants: a tuple deleted by [d1]
    and re-inserted by [d2] (or vice versa) nets out of both sides. *)
let compose (d1 : t) (d2 : t) : t =
  let relational (d : t) = not (SMap.is_empty d.inserts && SMap.is_empty d.deletes) in
  let scalars_changed = d1.scalars_changed || d2.scalars_changed in
  if not (relational d1) then { d2 with scalars_changed }
  else if not (relational d2) then { d1 with scalars_changed }
  else begin
    let minus name r (other : Relation.t SMap.t) =
      match SMap.find_opt name other with
      | Some o -> Relation.diff r o
      | None -> r
    in
    let combine ma mb ~cancel_a ~cancel_b =
      SMap.merge
        (fun name a b ->
          let part r cancel = minus name r cancel in
          let r : Relation.t =
            match (a, b) with
            | None, None -> assert false
            | Some a, None -> part a cancel_a
            | None, Some b -> part b cancel_b
            | Some a, Some b -> Relation.union (part a cancel_a) (part b cancel_b)
          in
          if Relation.is_empty r then None else Some r)
        ma mb
    in
    {
      inserts = combine d1.inserts d2.inserts ~cancel_a:d2.deletes ~cancel_b:d1.deletes;
      deletes = combine d1.deletes d2.deletes ~cancel_a:d2.inserts ~cancel_b:d1.inserts;
      scalars_changed;
    }
  end

let pp ppf (d : t) =
  let side label m =
    SMap.iter
      (fun name r ->
        Fmt.pf ppf "@[%s%s: %d tuple%s@]@ " label name (Relation.cardinal r)
          (if Relation.cardinal r = 1 then "" else "s"))
      m
  in
  Fmt.pf ppf "@[<v>";
  side "+" d.inserts;
  side "-" d.deletes;
  if d.scalars_changed then Fmt.pf ppf "~scalars@ ";
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Materialized plans and the per-operator delta rules                 *)
(* ------------------------------------------------------------------ *)

(** A materialized plan: the evaluated output of every operator in a
    compiled expression, in the expression's shape. *)
type node = {
  out : Relation.t;
  kids : node list;
}

exception Not_incremental

(** Evaluate [e] bottom-up against [db], keeping every operator's
    output. [materialize db e |>.out] agrees with [Relalg.eval db e]
    tuple-for-tuple. *)
let rec materialize ~domain ?consts (db : Db.t) (e : Relalg.expr) : node =
  let mat e = materialize ~domain ?consts db e in
  match e with
  | Relalg.Rel r -> { out = Db.relation_exn db r; kids = [] }
  | Relalg.Singleton _ | Relalg.Empty _ ->
    { out = Relalg.eval ~domain ?consts db e; kids = [] }
  | Relalg.Select (ps, e1) ->
    let k = mat e1 in
    let out =
      Relation.filter (Relalg.row_matches ~domain ?consts db ps) k.out
    in
    { out; kids = [ k ] }
  | Relalg.Project (cols, e1) ->
    let k = mat e1 in
    { out = Relalg.project_rel cols k.out; kids = [ k ] }
  | Relalg.Product (a, b) ->
    let ka = mat a and kb = mat b in
    { out = Relalg.join_rels ~domain ?consts db [ ka.out; kb.out ] []; kids = [ ka; kb ] }
  | Relalg.Union (a, b) ->
    let ka = mat a and kb = mat b in
    { out = Relation.union ka.out kb.out; kids = [ ka; kb ] }
  | Relalg.Join (inputs, ps) ->
    let kids = List.map mat inputs in
    let out =
      Relalg.join_rels ~domain ?consts db (List.map (fun k -> k.out) kids) ps
    in
    { out; kids }
  | Relalg.Antijoin (e1, sub, args) ->
    let ke = mat e1 and ks = mat sub in
    let out =
      Relation.filter
        (fun row ->
          not (Relation.mem (Relalg.arg_values ~domain ?consts db args row) ks.out))
        ke.out
    in
    { out; kids = [ ke; ks ] }

(** Push a delta through a materialized plan. Returns the updated
    materialization and the exact insert/delete sets of the plan's
    output ([out' = (out \ del) ∪ ins]). Raises {!Not_incremental}
    when the delta changed a scalar, since ground terms inside the plan
    read scalars. [after] is the post-commit state (used for ground
    terms and [Rel] leaves). *)
let advance ~domain ?consts ~(after : Db.t) (d : t) (e : Relalg.expr)
    (n : node) : node * Relation.t * Relation.t =
  if d.scalars_changed then raise Not_incremental;
  let matches ps row = Relalg.row_matches ~domain ?consts after ps row in
  let key args row = Relalg.arg_values ~domain ?consts after args row in
  let joinr rels ps = Relalg.join_rels ~domain ?consts after rels ps in
  (* The rows of [r] whose [args] key is in [keys]: each key looked up
     through the first column it reads, the rest of it checked on the
     rows found. A key that reads no column is every row's key. *)
  let keyed args keys r =
    match
      List.find_mapi
        (fun i -> function Relalg.Acol c -> Some (i, c) | Relalg.Aterm _ -> None)
        args
    with
    | None -> if Relation.mem (key args []) keys then r else Relation.empty (Relation.sorts r)
    | Some (i, col) ->
      Relation.fold
        (fun k acc ->
          Relation.find_by ~col (List.nth k i) r
          |> Relation.filter (fun row -> Relation.Tuple.equal (key args row) k)
          |> Relation.union acc)
        keys
        (Relation.empty (Relation.sorts r))
  in
  let rec go (e : Relalg.expr) (n : node) : node * Relation.t * Relation.t =
    let none = Relation.empty (Relation.sorts n.out) in
    match (e, n.kids) with
    | Relalg.Rel r, [] ->
      let sorts = Relation.sorts n.out in
      let ins = inserts d r ~sorts and del = deletes d r ~sorts in
      let out =
        if Relation.is_empty ins && Relation.is_empty del then n.out
        else Db.relation_exn after r
      in
      ({ out; kids = [] }, ins, del)
    | (Relalg.Singleton _ | Relalg.Empty _), [] -> (n, none, none)
    | Relalg.Select (ps, e1), [ k ] ->
      let k', ins1, del1 = go e1 k in
      let ins = Relation.filter (matches ps) ins1
      and del = Relation.filter (matches ps) del1 in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = [ k' ] }, ins, del)
    | Relalg.Project (cols, e1), [ k ] ->
      let k', ins1, del1 = go e1 k in
      let ins = Relation.diff (Relalg.project_rel cols ins1) n.out in
      let del =
        if Relation.is_empty del1 then none
        else
          (* a projected tuple leaves only when no remaining child row
             still derives it: the child rows holding its first
             projected value are the only ones that might *)
          let derived p =
            match cols with
            | [] -> not (Relation.is_empty k'.out)
            | col :: _ ->
              Relation.exists
                (fun row -> Relation.Tuple.equal (Relalg.project_row cols row) p)
                (Relation.find_by ~col (List.hd p) k'.out)
          in
          Relation.filter (fun p -> not (derived p)) (Relalg.project_rel cols del1)
      in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = [ k' ] }, ins, del)
    | Relalg.Product (a, b), [ ka; kb ] ->
      let ka', insA, delA = go a ka and kb', insB, delB = go b kb in
      let prod x y =
        if Relation.is_empty x || Relation.is_empty y then none
        else joinr [ x; y ] []
      in
      let ins = Relation.union (prod insA kb'.out) (prod ka'.out insB) in
      let del = Relation.union (prod delA kb.out) (prod ka.out delB) in
      let ins = Relation.diff ins n.out in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = [ ka'; kb' ] }, ins, del)
    | Relalg.Union (a, b), [ ka; kb ] ->
      let ka', insA, delA = go a ka and kb', insB, delB = go b kb in
      let ins = Relation.diff (Relation.union insA insB) n.out in
      let del =
        Relation.union
          (Relation.filter (fun t -> not (Relation.mem t kb'.out)) delA)
          (Relation.filter (fun t -> not (Relation.mem t ka'.out)) delB)
      in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = [ ka'; kb' ] }, ins, del)
    | Relalg.Join (inputs, ps), kids ->
      let advanced = List.map2 go inputs kids in
      let kids' = List.map (fun (k, _, _) -> k) advanced in
      let news = List.map (fun k -> k.out) kids' in
      let olds = List.map (fun k -> k.out) kids in
      let replace l i x = List.mapi (fun j y -> if i = j then x else y) l in
      let fire base i x acc =
        if Relation.is_empty x then acc
        else Relation.union acc (joinr (replace base i x) ps)
      in
      let ins =
        List.fold_left
          (fun (acc, i) (_, insI, _) -> (fire news i insI acc, i + 1))
          (none, 0) advanced
        |> fst
      in
      let del =
        List.fold_left
          (fun (acc, i) (_, _, delI) -> (fire olds i delI acc, i + 1))
          (none, 0) advanced
        |> fst
      in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = kids' }, ins, del)
    | Relalg.Antijoin (e1, sub, args), [ ke; ks ] ->
      let ke', insE, delE = go e1 ke and ks', insS, delS = go sub ks in
      let blocked t = Relation.mem (key args t) ks'.out in
      let ins =
        let from_e = Relation.filter (fun t -> not (blocked t)) insE in
        if Relation.is_empty delS then from_e
        else
          (* keys retracted from the subplan readmit their rows *)
          Relation.union from_e (keyed args delS ke'.out)
      in
      let del =
        let from_e = Relation.inter delE n.out in
        if Relation.is_empty insS then from_e
        else
          (* keys newly in the subplan retract their rows *)
          Relation.union from_e (keyed args insS n.out)
      in
      let out = Relation.patch ~ins ~del n.out in
      ({ out; kids = [ ke'; ks' ] }, ins, del)
    | _ -> raise Not_incremental
  in
  go e n

(* ------------------------------------------------------------------ *)
(* Symbolic derivative rendering (fds explain --delta)                 *)
(* ------------------------------------------------------------------ *)

(** Relation names a plan reads. *)
let rec reads (e : Relalg.expr) : string list =
  match e with
  | Relalg.Rel r -> [ r ]
  | Relalg.Singleton _ | Relalg.Empty _ -> []
  | Relalg.Select (_, e) | Relalg.Project (_, e) -> reads e
  | Relalg.Product (a, b) | Relalg.Union (a, b) -> reads a @ reads b
  | Relalg.Join (inputs, _) -> List.concat_map reads inputs
  | Relalg.Antijoin (a, b, _) -> reads a @ reads b

(** The insert-derivative of a plan with respect to [ΔR], rendered in
    the plan syntax of {!Relalg.pp} with zero branches dropped; [None]
    when the plan does not depend on [R]. Antijoin subplan dependence
    renders as a retract/readmit annotation, since inserts on the right
    of an antijoin delete from its output (and deletes readmit). *)
let derivative (rname : string) (e : Relalg.expr) : string option =
  let str fmt = Format.asprintf fmt in
  let plan e = str "%a" Relalg.pp e in
  let rec d (e : Relalg.expr) : string option =
    match e with
    | Relalg.Rel r -> if String.equal r rname then Some (str "Δ%s" r) else None
    | Relalg.Singleton _ | Relalg.Empty _ -> None
    | Relalg.Select (ps, e1) ->
      Option.map (fun s -> str "select[%a](%s)" Relalg.pp_preds ps s) (d e1)
    | Relalg.Project (cols, e1) ->
      Option.map
        (fun s ->
          str "project[%a](%s)" Fmt.(list ~sep:(any ",") int) cols s)
        (d e1)
    | Relalg.Product (a, b) -> begin
      match (d a, d b) with
      | None, None -> None
      | Some da, None -> Some (str "(%s x %s)" da (plan b))
      | None, Some db -> Some (str "(%s x %s)" (plan a) db)
      | Some da, Some db ->
        Some (str "((%s x %s) + (%s x %s))" da (plan b) (plan a) db)
    end
    | Relalg.Union (a, b) -> begin
      match (d a, d b) with
      | None, None -> None
      | Some da, None -> Some da
      | None, Some db -> Some db
      | Some da, Some db -> Some (str "(%s + %s)" da db)
    end
    | Relalg.Join (inputs, ps) ->
      let branches =
        List.mapi
          (fun i inp ->
            Option.map
              (fun di ->
                let rendered =
                  List.mapi (fun j e -> if i = j then di else plan e) inputs
                in
                str "join[%a](%s)" Relalg.pp_preds ps
                  (String.concat ", " rendered))
              (d inp))
          inputs
        |> List.filter_map Fun.id
      in
      if branches = [] then None
      else Some (String.concat " + " branches)
    | Relalg.Antijoin (e1, sub, args) ->
      let left =
        Option.map
          (fun de ->
            str "antijoin[(%a)](%s, %s)"
              Fmt.(list ~sep:(any ", ") Relalg.pp_arg)
              args de (plan sub))
          (d e1)
      in
      let right =
        if List.mem rname (reads sub) then
          Some (str "retract/readmit via Δ(%s)" (plan sub))
        else None
      in
      begin
        match (left, right) with
        | None, None -> None
        | Some l, None -> Some l
        | None, Some r -> Some r
        | Some l, Some r -> Some (str "%s ⊖ %s" l r)
      end
  in
  d e

(** One derivative line per relation the plan reads, in first-read
    order: [(name, rendered insert-derivative)]. *)
let derivatives (e : Relalg.expr) : (string * string) list =
  let seen = Hashtbl.create 8 in
  reads e
  |> List.filter (fun r ->
         if Hashtbl.mem seen r then false
         else begin
           Hashtbl.add seen r ();
           true
         end)
  |> List.filter_map (fun r ->
         Option.map (fun s -> (r, s)) (derivative r e))

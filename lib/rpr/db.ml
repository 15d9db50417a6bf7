(** Database states: a value for every relational program variable
    (relation name) and every scalar program variable. Two states of a
    universe differ only in these values (paper Section 5.1.2). *)

open Fdbs_kernel
module SMap = Map.Make (String)

type t = {
  relations : Relation.t SMap.t;
  scalars : Value.t SMap.t;
}

let empty = { relations = SMap.empty; scalars = SMap.empty }

let with_relation name rel (db : t) = { db with relations = SMap.add name rel db.relations }
let with_scalar name v (db : t) = { db with scalars = SMap.add name v db.scalars }

let relation (db : t) name = SMap.find_opt name db.relations
let scalar (db : t) name = SMap.find_opt name db.scalars

let relation_exn (db : t) name =
  match relation db name with
  | Some r -> r
  | None -> invalid_arg (Fmt.str "Db: undeclared relation %s" name)

let relations (db : t) = SMap.bindings db.relations
let scalars (db : t) = SMap.bindings db.scalars

let equal (a : t) (b : t) =
  SMap.equal Relation.equal a.relations b.relations
  && SMap.equal Value.equal a.scalars b.scalars

(** A structural hash consistent with {!equal}: folds the (cached)
    relation hashes and scalar values in canonical name order. Makes
    visited-state membership in fixpoint sweeps O(1) expected instead
    of a pairwise [equal] scan. *)
let hash (db : t) : int =
  let h = ref 17 in
  let mix n = h := (!h * 33) + n in
  SMap.iter
    (fun name rel ->
      mix (Hashtbl.hash name);
      mix (Relation.hash rel))
    db.relations;
  SMap.iter
    (fun name v ->
      mix (Hashtbl.hash name);
      mix (Value.hash v))
    db.scalars;
  !h land max_int

(** Union of every relation's active domain plus the scalar values
    (each scalar keyed under its value's... relations only carry sorts,
    so scalars are contributed by the caller when needed). *)
let active_domain (db : t) : Domain.t =
  SMap.fold (fun _ rel acc -> Domain.union acc (Relation.active_domain rel)) db.relations
    Domain.empty

(** Total number of tuples across all relations. *)
let size (db : t) = SMap.fold (fun _ rel n -> n + Relation.cardinal rel) db.relations 0

let pp ppf (db : t) =
  let pp_rel ppf (name, rel) = Fmt.pf ppf "@[%s = %a@]" name Relation.pp rel in
  let pp_scalar ppf (name, v) = Fmt.pf ppf "@[%s := %a@]" name Value.pp v in
  Fmt.pf ppf "@[<v>%a%a@]"
    Fmt.(list ~sep:cut pp_rel) (relations db)
    Fmt.(list ~sep:cut pp_scalar) (scalars db)

(** A canonical digest for deduplication in state-space exploration. *)
let key (db : t) : string = Fmt.str "%a" pp db

(** Finite carriers for sorts.

    Quantifiers are evaluated over finite domains: a [Domain.t] assigns to
    each sort the (finite) list of values inhabiting it. The [bool] sort
    always has carrier [{true, false}], supplied implicitly.

    Each carrier is kept twice: as the sorted list quantifiers iterate,
    and as a set for O(log k) membership, so growing a carrier by a
    value it already holds costs a lookup and no allocation. *)

module VSet = Set.Make (Value)

type carrier = { values : Value.t list; set : VSet.t }
type t = carrier Sort.Map.t

let empty : t = Sort.Map.empty

let of_set set = { values = VSet.elements set; set }

let add sort values (d : t) : t = Sort.Map.add sort (of_set (VSet.of_list values)) d

let of_list bindings =
  List.fold_left (fun d (s, vs) -> add s vs d) empty bindings

let bool_carrier = [ Value.Bool false; Value.Bool true ]

let carrier (d : t) sort =
  if Sort.is_bool sort then bool_carrier
  else match Sort.Map.find_opt sort d with
    | Some c -> c.values
    | None -> []

(* [bool]'s implicit carrier is not the stored one, so it keeps the
   list semantics of [add srt (v :: carrier d srt) d] exactly. *)
let extend sort v (d : t) : t =
  if Sort.is_bool sort then add sort (v :: bool_carrier) d
  else
    match Sort.Map.find_opt sort d with
    | Some c when VSet.mem v c.set -> d
    | Some c -> Sort.Map.add sort (of_set (VSet.add v c.set)) d
    | None -> Sort.Map.add sort { values = [ v ]; set = VSet.singleton v } d

let mem (d : t) sort v =
  if Sort.is_bool sort then List.exists (Value.equal v) bool_carrier
  else match Sort.Map.find_opt sort d with
    | Some c -> VSet.mem v c.set
    | None -> false

let sorts (d : t) = List.map fst (Sort.Map.bindings d)

let size (d : t) sort = List.length (carrier d sort)

(** [union d1 d2] joins the carriers sort-wise. *)
let union (d1 : t) (d2 : t) : t =
  Sort.Map.union
    (fun _ c1 c2 ->
      if VSet.subset c2.set c1.set then Some c1
      else if VSet.subset c1.set c2.set then Some c2
      else Some (of_set (VSet.union c1.set c2.set)))
    d1 d2

let pp ppf (d : t) =
  let pp_binding ppf (s, c) =
    Fmt.pf ppf "@[%a = {%a}@]" Sort.pp s Fmt.(list ~sep:(any ", ") Value.pp) c.values
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_binding) (Sort.Map.bindings d)

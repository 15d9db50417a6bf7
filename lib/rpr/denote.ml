(** The literal denotational semantics of paper Section 5.1.2, for
    validation on small universes.

    A universe U for the schema is the set of all states differing only
    in the values of the program variables — here, all assignments of
    relation contents over a finite domain (scalars are held fixed at
    the base state's values, matching the paper's procedure semantics
    where parameters are valued at call time). The meaning [m(s)] is
    then an explicit binary relation over U, computed by running the
    operational {!Semantics.exec} from every state; tests validate the
    paper's equations (1)–(6), e.g. [m(p;q) = m(p) ∘ m(q)] and
    m(p⋆) = (m(p))⋆. *)

open Fdbs_kernel

(** All subsets of a list (powerset), in a deterministic order. *)
let rec powerset = function
  | [] -> [ [] ]
  | x :: rest ->
    let smaller = powerset rest in
    smaller @ List.map (fun s -> x :: s) smaller

(** Every database state over [domain]: all combinations of relation
    contents, with scalars fixed from [base]. The universe's size is
    exponential; intended for small validation cases only. *)
let universe (schema : Schema.t) ~(domain : Domain.t) ~(base : Db.t) : Db.t list =
  let all_tuples (rd : Schema.rel_decl) =
    Util.cartesian (List.map (Domain.carrier domain) rd.Schema.rsorts)
  in
  let choices =
    List.map
      (fun rd ->
        List.map
          (fun tuples -> (rd.Schema.rname, Relation.of_list rd.Schema.rsorts tuples))
          (powerset (all_tuples rd)))
      schema.Schema.relations
  in
  List.map
    (fun assignment ->
      List.fold_left (fun db (r, rel) -> Db.with_relation r rel db) base assignment)
    (Util.cartesian choices)

(** The meaning of a statement as an explicit binary relation over the
    universe: index pairs (i, j) with (U.(i), U.(j)) ∈ m(s). *)
let meaning (env : Semantics.env) (states : Db.t list) (stmt : Stmt.t) :
  (int * int) list =
  let arr = Array.of_list states in
  (* Hash-indexed state lookup instead of a linear [Db.equal] scan over
     the whole universe per executed state. Indices are inserted in
     descending order so [Hashtbl.find_all] (most-recent-first) yields
     them ascending, preserving the lowest-index-wins rule for duplicate
     states. *)
  let by_hash : (int, int) Hashtbl.t = Hashtbl.create (2 * Array.length arr) in
  for i = Array.length arr - 1 downto 0 do
    Hashtbl.add by_hash (Db.hash arr.(i)) i
  done;
  let index db =
    List.find_opt (fun i -> Db.equal arr.(i) db) (Hashtbl.find_all by_hash (Db.hash db))
  in
  List.concat
    (List.mapi
       (fun i db ->
         List.filter_map
           (fun (out, _) -> Option.map (fun j -> (i, j)) (index out))
           (Semantics.exec env stmt db))
       states)

(** Relation composition on index pairs, via a hash index on [r2]'s
    first component: O(|r1| + |r2| + |output| log |output|) instead of
    the pairwise scan kept below as {!compose_naive}. *)
let compose (r1 : (int * int) list) (r2 : (int * int) list) : (int * int) list =
  let by_fst : (int, int) Hashtbl.t = Hashtbl.create (2 * List.length r2) in
  List.iter (fun (b', c) -> Hashtbl.add by_fst b' c) r2;
  List.concat_map
    (fun (a, b) -> List.map (fun c -> (a, c)) (Hashtbl.find_all by_fst b))
    r1
  |> List.sort_uniq compare

(** The original pairwise composition; retained as the oracle for the
    equivalence property test of {!compose}. *)
let compose_naive (r1 : (int * int) list) (r2 : (int * int) list) : (int * int) list =
  List.concat_map
    (fun (a, b) -> List.filter_map (fun (b', c) -> if b = b' then Some (a, c) else None) r2)
    r1
  |> List.sort_uniq compare

(** Reflexive-transitive closure on index pairs over [n] states. *)
let closure ~(n : int) (r : (int * int) list) : (int * int) list =
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    reach.(i).(i) <- true
  done;
  List.iter (fun (i, j) -> reach.(i).(j) <- true) r;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if reach.(i).(j) then out := (i, j) :: !out
    done
  done;
  !out

let equal_relations (a : (int * int) list) (b : (int * int) list) =
  List.sort_uniq compare a = List.sort_uniq compare b

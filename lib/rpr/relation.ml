(** Finite relations: sets of equal-length value tuples, the data
    structures of the relational model that RPR programs manipulate
    (paper Section 5.1).

    The representation is a canonical sorted set of tuples (so
    structural equality needs no re-sorting, and membership and
    column-0 lookups are O(log n) from its order) carrying lazily
    built, atomically published caches: a hash of the whole extension
    (for O(1) database-state hashing in fixpoint exploration), a
    membership table for values probed often, per-column value indexes
    for the other columns, and the rendered text ({!render_text}). The
    caches never change what is observable: every operation is defined
    by the tuple set alone. The indexes and the text survive writes:
    [add], [remove] and [patch] carry them into the new value in
    O(|writes| log n), so successive versions share all but the
    touched paths.

    Thread-safety: caches live in [Atomic.t] cells and are built
    fully before being published, so concurrent {!Pool} worker domains
    may at worst duplicate a cache build — never observe a partial
    one. *)

open Fdbs_kernel

module Tuple = struct
  type t = Value.t list

  let compare = List.compare Value.compare
  let equal a b = compare a b = 0

  (* Deterministic across runs (unlike the depth-limited generic
     [Hashtbl.hash] it folds every column). *)
  let hash (tu : t) =
    List.fold_left (fun h v -> (h * 33) + Value.hash v) 5381 tu land max_int

  let pp ppf tu = Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Value.pp) tu
end

module Tuple_set = Set.Make (Tuple)
module Tuple_map = Map.Make (Tuple)

module Value_map = Map.Make (Value)

(* Column c's index, in slot c - 1: each value to the tuples holding it
   there. Column 0 needs none: the tuple set is ordered by it. *)
type index = Tuple_set.t Value_map.t array

(* A relation's rendered text, cut into chunks at split tuples: the
   chunk under split s covers [s, next split), and the first chunk also
   everything below the second split. A split need not be a member.
   [None] marks a chunk a write has touched since it was rendered. The
   text belongs to [render]: another renderer starts cold. *)
type text = {
  render : Buffer.t -> Tuple.t -> unit;
  chunks : string option Tuple_map.t;  (** never empty *)
}

type t = {
  sorts : Sort.t list;  (** column sorts; the relation's arity is their length *)
  tuples : Tuple_set.t;
  hash_cache : int option Atomic.t;  (** [None] until computed *)
  mem_cache : (Tuple.t, unit) Hashtbl.t option Atomic.t;
  tree_probes : int Atomic.t;  (** probes answered before [mem_cache] exists *)
  index : index option Atomic.t;  (** [None] until built: cold *)
  text : text option Atomic.t;  (** [None] until rendered: cold *)
}

(* Every constructor goes through [make_with]: derived relations start
   cold, and only the writes ([carry]) pass caches on. *)
let make_with index text sorts tuples =
  { sorts; tuples; hash_cache = Atomic.make None; mem_cache = Atomic.make None;
    tree_probes = Atomic.make 0; index = Atomic.make index; text = Atomic.make text }

let make sorts tuples = make_with None None sorts tuples

let empty sorts = make sorts Tuple_set.empty

let sorts (r : t) = r.sorts
let tuple_set (r : t) = r.tuples

let arity (r : t) = List.length r.sorts

let check_arity sorts (tu : Tuple.t) =
  if List.compare_lengths tu sorts <> 0 then
    invalid_arg
      (Fmt.str "Relation: tuple of arity %d in relation of arity %d" (List.length tu)
         (List.length sorts))

let check_tuple (r : t) tu = check_arity r.sorts tu

(* The split of the chunk [tu] falls in: the greatest split at or below
   [tu], else the first. *)
let chunk_of tu chunks =
  match Tuple_map.find_last_opt (fun s -> Tuple.compare s tu <= 0) chunks with
  | Some (s, _) -> s
  | None -> fst (Tuple_map.min_binding chunks)

(* [tu] filed under (or taken out of) its value in every indexed
   column; idempotent, so a write need not know whether [tu] was
   there. *)
let index_write present (idx : index) tu =
  let file set =
    let set = Option.value ~default:Tuple_set.empty set in
    let set = if present then Tuple_set.add tu set else Tuple_set.remove tu set in
    if Tuple_set.is_empty set then None else Some set
  in
  List.iteri (fun c v -> if c > 0 then idx.(c - 1) <- Value_map.update v file idx.(c - 1)) tu

(* [r] rewritten to [tuples]: [r]'s minus [del], then plus [ins]. A
   write that changes nothing returns [r] itself, caches included (the
   set operations return their argument physically then); otherwise
   the index is updated at, and the text made stale around, each
   written tuple. *)
let carry (r : t) tuples ~del ~ins =
  if tuples == r.tuples then r
  else
    let index =
      Option.map
        (fun idx ->
          let idx = Array.copy idx in
          Tuple_set.iter (index_write false idx) del;
          Tuple_set.iter (index_write true idx) ins;
          idx)
        (Atomic.get r.index)
    and text =
      Option.map
        (fun tx ->
          let stale tu chunks = Tuple_map.add (chunk_of tu chunks) None chunks in
          { tx with chunks = Tuple_set.fold stale ins (Tuple_set.fold stale del tx.chunks) })
        (Atomic.get r.text)
    in
    make_with index text r.sorts tuples

let add tu (r : t) =
  check_tuple r tu;
  carry r (Tuple_set.add tu r.tuples) ~del:Tuple_set.empty ~ins:(Tuple_set.singleton tu)

let remove tu (r : t) =
  check_tuple r tu;
  carry r (Tuple_set.remove tu r.tuples) ~del:(Tuple_set.singleton tu) ~ins:Tuple_set.empty

let patch ~ins ~del (r : t) =
  carry r
    (Tuple_set.union (Tuple_set.diff r.tuples del.tuples) ins.tuples)
    ~del:del.tuples ~ins:ins.tuples

let cardinal (r : t) = Tuple_set.cardinal r.tuples
let is_empty (r : t) = Tuple_set.is_empty r.tuples

(* A relation answers its first [mem_tree_probes] membership probes from
   the tree, in O(log n) each. A relation probed more often builds a
   hash table once and probes it in O(1): a delta rule probing a fresh
   state a few times builds none, an antijoin sweep builds one. *)
let mem_tree_probes = 16

(* Index-build tallies: how often the lazy caches are built from
   scratch (a concurrent duplicate build counts twice — it did the work
   twice). *)
let c_mem_index_builds = Metrics.counter "relation.mem_index_builds"
let c_col_index_builds = Metrics.counter "relation.col_index_builds"
let c_text_chunks_rendered = Metrics.counter "relation.text_chunks_rendered"
let c_text_chunks_reused = Metrics.counter "relation.text_chunks_reused"

(* Fetch a lazy cache, building it on a miss. The first build published
   wins, and a racing peer adopts it, so domains probe one shared
   copy. *)
let cached cell build =
  match Atomic.get cell with
  | Some c -> c
  | None ->
    let c = build () in
    ignore (Atomic.compare_and_set cell None (Some c) : bool);
    Option.value ~default:c (Atomic.get cell)

let mem tu (r : t) =
  match Atomic.get r.mem_cache with
  | Some tbl -> Hashtbl.mem tbl tu
  | None when Atomic.fetch_and_add r.tree_probes 1 < mem_tree_probes ->
    Tuple_set.mem tu r.tuples
  | None ->
    let table () =
      Metrics.incr c_mem_index_builds;
      let tbl = Hashtbl.create (2 * Tuple_set.cardinal r.tuples) in
      Tuple_set.iter (fun t -> Hashtbl.replace tbl t ()) r.tuples;
      tbl
    in
    Hashtbl.mem (cached r.mem_cache table) tu

(* The column indexes, all columns built in one pass. *)
let index (r : t) : index =
  cached r.index (fun () ->
      Metrics.incr c_col_index_builds;
      let idx = Array.make (max 0 (arity r - 1)) Value_map.empty in
      Tuple_set.iter (index_write true idx) r.tuples;
      idx)

(* The tuples whose first column holds [v]: a range of the tuple set,
   cut out by two splits. [[v]] sorts below every longer tuple that
   starts with [v], and is itself a member only at arity 1. *)
let range0 v tuples =
  let _, here, above = Tuple_set.split [ v ] tuples in
  let range =
    match Tuple_set.find_first_opt (fun tu -> Value.compare (List.hd tu) v > 0) above with
    | Some hi ->
      let below, _, _ = Tuple_set.split hi above in
      below
    | None -> above
  in
  if here then Tuple_set.add [ v ] range else range

(** The tuples whose column [col] holds [value], as a relation sharing
    their set with the index. *)
let find_by ~(col : int) (value : Value.t) (r : t) : t =
  if col < 0 || col >= arity r then
    invalid_arg (Fmt.str "Relation.find_by: column %d of arity %d" col (arity r));
  make r.sorts
    (if col = 0 then range0 value r.tuples
     else
       Option.value ~default:Tuple_set.empty
         (Value_map.find_opt value (index r).(col - 1)))

let singleton sorts tu =
  let r = make sorts (Tuple_set.singleton tu) in
  check_tuple r tu;
  r

(* One relation value for the whole list, not one per tuple. *)
let of_list sorts tuples =
  List.iter (check_arity sorts) tuples;
  make sorts (Tuple_set.of_list tuples)
let to_list (r : t) = Tuple_set.elements r.tuples

let union (a : t) (b : t) = make a.sorts (Tuple_set.union a.tuples b.tuples)
let inter (a : t) (b : t) = make a.sorts (Tuple_set.inter a.tuples b.tuples)
let diff (a : t) (b : t) = make a.sorts (Tuple_set.diff a.tuples b.tuples)

let filter f (r : t) = make r.sorts (Tuple_set.filter f r.tuples)

let fold f (r : t) acc = Tuple_set.fold f r.tuples acc
let iter f (r : t) = Tuple_set.iter f r.tuples
let exists f (r : t) = Tuple_set.exists f r.tuples
let for_all f (r : t) = Tuple_set.for_all f r.tuples

(** A canonical hash of the extension (sorts contribute arity only),
    computed once per relation value. Consistent with {!equal}. *)
let hash (r : t) =
  cached r.hash_cache (fun () ->
      Tuple_set.fold (fun tu acc -> (acc * 33) + Tuple.hash tu) r.tuples ((arity r * 7) + 3)
      land max_int)

(* A chunk holds about [chunk_size] tuples: a re-rendered chunk of more
   than twice that is cut into pieces of [chunk_size]. *)
let chunk_size = 64
let text_sep = ", "

(** Append [r]'s tuples in order, each written by [render], separated
    by [", "]. Chunks no write has touched since an ancestor version
    was rendered by the same [render] are copied; stale ones are
    rendered again, and the refreshed chunk map is published on [r]
    for the versions derived from it. *)
let render_text ~(render : Buffer.t -> Tuple.t -> unit) (buf : Buffer.t) (r : t) =
  let cached = Atomic.get r.text in
  let chunks =
    match cached with
    | Some tx when tx.render == render -> tx.chunks
    | _ -> (
      match Tuple_set.min_elt_opt r.tuples with
      | None -> Tuple_map.empty
      | Some lo -> Tuple_map.singleton lo None)
  in
  let fresh = ref chunks in
  let rendered = ref 0 and reused = ref 0 in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string buf text_sep in
  let piece split start stop =
    fresh := Tuple_map.add split (Some (Buffer.sub buf start (stop - start))) !fresh;
    incr rendered
  in
  (* Render the stale chunk under [split], up to [hi] unless it is the
     [last], and record its text: one chunk, several when it outgrew
     two, none when it is empty. *)
  let rerender ~is_first ~last split hi =
    let n = ref 0 and stop = ref 0 and cuts = ref [] in
    let visit tu =
      if (not last) && Tuple.compare tu hi >= 0 then raise_notrace Exit;
      sep ();
      if !n mod chunk_size = 0 then cuts := (tu, Buffer.length buf) :: !cuts;
      render buf tu;
      incr n;
      stop := Buffer.length buf
    in
    (* [iter] stopped by [Exit] at [hi] allocates nothing per tuple,
       unlike a [Seq] walk *)
    (try
       if is_first then Tuple_set.iter visit r.tuples
       else begin
         let _, present, above = Tuple_set.split split r.tuples in
         if present then visit split;
         Tuple_set.iter visit above
       end
     with Exit -> ());
    (* [cuts] runs from the last piece back to the first, which keeps
       the chunk's own split, except that the first chunk is re-keyed
       by its least tuple: it may hold tuples below its old split, and
       the splits of its later pieces must lie above its key. *)
    let rec pieces stop = function
      | [] -> ()
      | [ (tu, start) ] -> piece (if is_first then tu else split) start stop
      | (tu, start) :: rest ->
        piece tu start stop;
        pieces (start - String.length text_sep) rest
    in
    if is_first || !n = 0 then fresh := Tuple_map.remove split !fresh;
    pieces !stop
      (match List.rev !cuts with
       | first :: _ when !n <= 2 * chunk_size -> [ first ]
       | _ -> !cuts)
  in
  (* Walk the chunks in order, each emitted once its successor's split
     (its upper bound) is known; refs, not options, so the walk itself
     does not allocate. *)
  let have = ref false and is_first = ref true in
  let split = ref [] and chunk = ref None in
  let emit ~last hi =
    if !have then begin
      (match !chunk with
       | Some s ->
         sep ();
         Buffer.add_string buf s;
         incr reused
       | None -> rerender ~is_first:!is_first ~last !split hi);
      is_first := false
    end
  in
  Tuple_map.iter
    (fun s c ->
      emit ~last:false s;
      have := true;
      split := s;
      chunk := c)
    chunks;
  emit ~last:true [];
  Metrics.add c_text_chunks_rendered !rendered;
  Metrics.add c_text_chunks_reused !reused;
  if !fresh != chunks then
    ignore
      (Atomic.compare_and_set r.text cached
         (if Tuple_map.is_empty !fresh then None else Some { render; chunks = !fresh })
        : bool)

let equal (a : t) (b : t) =
  a == b
  || ((* cached hashes, when both present, give a cheap negative *)
      (match (Atomic.get a.hash_cache, Atomic.get b.hash_cache) with
       | Some ha, Some hb -> ha = hb
       | _ -> true)
      && List.equal Sort.equal a.sorts b.sorts
      && Tuple_set.equal a.tuples b.tuples)

(* Each first-column value of the binary relation [b] to its
   second-column values, gathered once in O(|b|). *)
let successors (b : t) =
  let succ = Hashtbl.create 16 in
  iter (function [ y; z ] -> Hashtbl.add succ y z | _ -> assert false) b;
  succ

(* [{(x, z) | (x, y) ∈ tuples, z ∈ succ y}], one hash lookup per tuple. *)
let compose_succ succ tuples =
  Tuple_set.fold
    (fun tu out ->
      match tu with
      | [ x; y ] -> List.fold_left (fun out z -> Tuple_set.add [ x; z ] out) out (Hashtbl.find_all succ y)
      | _ -> assert false)
    tuples Tuple_set.empty

(** Composition of binary relations sharing their middle sort:
    [compose a b = {(x, z) | (x, y) ∈ a, (y, z) ∈ b}], evaluated
    through a hash table of [b]'s successors — O(|a| + |b| + |output|
    log |output|) rather than the pairwise O(|a|·|b|) scan. *)
let compose (a : t) (b : t) : t =
  match (a.sorts, b.sorts) with
  | [ sa; mid_a ], [ mid_b; sb ] when Sort.equal mid_a mid_b ->
    make [ sa; sb ] (compose_succ (successors b) a.tuples)
  | _ ->
    invalid_arg
      "Relation.compose: expects binary relations sharing their middle sort"

(** Transitive closure of a homogeneous binary relation, by semi-naive
    iteration: each round composes only the {e frontier} (pairs new in
    the previous round) with [r], through one successor table, so total
    work is proportional to the derivations actually produced instead
    of re-composing the whole accumulated closure every round. *)
let transitive_closure (r : t) : t =
  (match r.sorts with
   | [ s1; s2 ] when Sort.equal s1 s2 -> ()
   | _ ->
     invalid_arg
       "Relation.transitive_closure: expects a homogeneous binary relation");
  let succ = successors r in
  let rec go acc frontier =
    if Tuple_set.is_empty frontier then acc
    else
      let next = Tuple_set.diff (compose_succ succ frontier) acc in
      go (Tuple_set.union acc next) next
  in
  make r.sorts (go r.tuples r.tuples)

(** Values appearing in each column, keyed by the column's sort: the
    relation's contribution to the active domain. Each column is
    gathered and sorted once; a [bool] column keeps the implicit
    [{false, true}] carrier. *)
let active_domain (r : t) : Domain.t =
  if is_empty r then Domain.empty
  else
    let columns = Array.make (arity r) [] in
    iter (List.iteri (fun i v -> columns.(i) <- v :: columns.(i))) r;
    let d = ref Domain.empty in
    List.iteri
      (fun i srt -> d := Domain.add srt (columns.(i) @ Domain.carrier !d srt) !d)
      r.sorts;
    !d

let pp ppf (r : t) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Tuple.pp) (to_list r)

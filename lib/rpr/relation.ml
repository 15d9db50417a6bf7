(** Finite relations: sets of equal-length value tuples, the data
    structures of the relational model that RPR programs manipulate
    (paper Section 5.1).

    The representation is a canonical sorted set of tuples (so
    structural equality needs no re-sorting) carrying lazily built,
    atomically published caches: a hash of the whole extension (for
    O(1) database-state hashing in fixpoint exploration), a tuple hash
    table (O(1)-amortized membership, e.g. antijoin probes), and
    per-column value indexes (O(n + m + |output|) composition instead
    of pairwise scanning). The caches never change what is observable:
    every operation is defined by the tuple set alone. The one cache
    that survives a write is the rendered text ({!render_text}): [add]
    and [remove] carry it into the new value with only the touched
    chunk marked stale, so successive versions share the rest.

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

type index = (Value.t, Tuple.t list) Hashtbl.t

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
  hash_cache : int Atomic.t;  (** [-1] until computed *)
  mem_cache : (Tuple.t, unit) Hashtbl.t option Atomic.t;
  tree_probes : int Atomic.t;  (** probes answered before [mem_cache] exists *)
  col_cache : (int * index) list Atomic.t;  (** per-column value indexes *)
  text : text option Atomic.t;  (** [None] until rendered: cold *)
}

(* Every constructor goes through [make_text]: derived relations start
   with fresh (empty) caches, and only [add]/[remove] pass on a text. *)
let make_text text sorts tuples =
  {
    sorts;
    tuples;
    hash_cache = Atomic.make (-1);
    mem_cache = Atomic.make None;
    tree_probes = Atomic.make 0;
    col_cache = Atomic.make [];
    text = Atomic.make text;
  }

let make sorts tuples = make_text None sorts tuples

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

(* A write that changes nothing returns [r] itself, caches included:
   [Set.add]/[Set.remove] return their argument physically then. A
   write that changes [r] keeps its text with [tu]'s chunk stale. *)
let rebuild (r : t) tu tuples =
  if tuples == r.tuples then r
  else
    let text =
      match Atomic.get r.text with
      | None -> None
      | Some tx ->
        Some { tx with chunks = Tuple_map.add (chunk_of tu tx.chunks) None tx.chunks }
    in
    make_text text r.sorts tuples

let add tu (r : t) =
  check_tuple r tu;
  rebuild r tu (Tuple_set.add tu r.tuples)

let remove tu (r : t) =
  check_tuple r tu;
  rebuild r tu (Tuple_set.remove tu r.tuples)

let cardinal (r : t) = Tuple_set.cardinal r.tuples
let is_empty (r : t) = Tuple_set.is_empty r.tuples

(* Below this cardinality a balanced-tree lookup beats building a hash
   table, so [warm] builds none. *)
let mem_index_threshold = 8

(* A relation answers its first [mem_tree_probes] membership probes from
   the balanced tree, in O(log n) each. Only a relation probed more
   often pays the O(n) build of its membership table, after which every
   probe is O(1): a commit probing a fresh state a few times (a delta
   rule, a monitor) builds none, an antijoin sweeping a relation builds
   one. *)
let mem_tree_probes = 16

(* Index-build tallies: how often the lazy caches are actually
   materialized (a concurrent duplicate build counts twice — it did
   the work twice). *)
let c_mem_index_builds = Metrics.counter "relation.mem_index_builds"
let c_col_index_builds = Metrics.counter "relation.col_index_builds"
let c_text_chunks_rendered = Metrics.counter "relation.text_chunks_rendered"
let c_text_chunks_reused = Metrics.counter "relation.text_chunks_reused"

(* Build (or fetch) the membership table. Publication is a one-shot
   CAS: the first builder wins and every racing peer drops its build
   and adopts the published table, so concurrent domains end up probing
   the {e same} table — sharing cache lines instead of each carrying a
   private duplicate. *)
let mem_table (r : t) =
  match Atomic.get r.mem_cache with
  | Some tbl -> tbl
  | None ->
    Metrics.incr c_mem_index_builds;
    let tbl = Hashtbl.create (2 * Tuple_set.cardinal r.tuples) in
    Tuple_set.iter (fun t -> Hashtbl.replace tbl t ()) r.tuples;
    if Atomic.compare_and_set r.mem_cache None (Some tbl) then tbl
    else begin
      match Atomic.get r.mem_cache with Some t -> t | None -> tbl
    end

let mem tu (r : t) =
  match Atomic.get r.mem_cache with
  | Some tbl -> Hashtbl.mem tbl tu
  | None ->
    if Atomic.fetch_and_add r.tree_probes 1 < mem_tree_probes then
      Tuple_set.mem tu r.tuples
    else Hashtbl.mem (mem_table r) tu

(** The value -> tuples index for column [col], built on first use and
    cached. The index is immutable once published. *)
let index_on (col : int) (r : t) : index =
  if col < 0 || col >= arity r then
    invalid_arg (Fmt.str "Relation.index_on: column %d of arity %d" col (arity r));
  match List.assoc_opt col (Atomic.get r.col_cache) with
  | Some idx -> idx
  | None ->
    Metrics.incr c_col_index_builds;
    let idx : index = Hashtbl.create (max 16 (2 * Tuple_set.cardinal r.tuples)) in
    Tuple_set.iter
      (fun tu ->
        let key = List.nth tu col in
        Hashtbl.replace idx key
          (tu :: Option.value ~default:[] (Hashtbl.find_opt idx key)))
      r.tuples;
    (* One-shot publication: if a peer published this column first, its
       index wins and we adopt it — all domains probe one shared
       index. *)
    let rec publish () =
      let cur = Atomic.get r.col_cache in
      match List.assoc_opt col cur with
      | Some published -> published
      | None ->
        if Atomic.compare_and_set r.col_cache cur ((col, idx) :: cur) then idx
        else publish ()
    in
    publish ()

(** All tuples whose column [col] holds [value], via the cached
    index. *)
let find_by ~(col : int) (value : Value.t) (r : t) : Tuple.t list =
  Option.value ~default:[] (Hashtbl.find_opt (index_on col r) value)

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
  let h = Atomic.get r.hash_cache in
  if h >= 0 then h
  else begin
    let h =
      Tuple_set.fold
        (fun tu acc -> (acc * 33) + Tuple.hash tu)
        r.tuples
        ((arity r * 7) + 3)
      land max_int
    in
    (* The hash is deterministic, so a lost race publishes the same
       value; the CAS just keeps publication one-shot like the other
       caches. *)
    ignore (Atomic.compare_and_set r.hash_cache (-1) h : bool);
    h
  end

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

(** Publish this relation's lazy caches eagerly: the extension hash and
    (above the indexing threshold) the membership table. Called once on
    a shared read-only snapshot {e before} handing it to parallel
    readers, so worker domains probe published indexes instead of
    racing to build duplicates. *)
let warm (r : t) =
  ignore (hash r : int);
  if Tuple_set.cardinal r.tuples >= mem_index_threshold then
    ignore (mem_table r : (Tuple.t, unit) Hashtbl.t)

let equal (a : t) (b : t) =
  a == b
  || (let ha = Atomic.get a.hash_cache and hb = Atomic.get b.hash_cache in
      (* cached hashes, when both present, give a cheap negative *)
      (ha < 0 || hb < 0 || ha = hb)
      && List.equal Sort.equal a.sorts b.sorts
      && Tuple_set.equal a.tuples b.tuples)

(** Composition of binary relations sharing their middle sort:
    [compose a b = {(x, z) | (x, y) ∈ a, (y, z) ∈ b}], evaluated
    through [b]'s first-column index — O(|a| + |b| + |output| log
    |output|) rather than the pairwise O(|a|·|b|) scan. *)
let compose (a : t) (b : t) : t =
  match (a.sorts, b.sorts) with
  | [ sa; mid_a ], [ mid_b; sb ] when Sort.equal mid_a mid_b ->
    let out = ref Tuple_set.empty in
    Tuple_set.iter
      (fun tu ->
        match tu with
        | [ x; y ] ->
          List.iter
            (fun tu' ->
              match tu' with
              | [ _; z ] -> out := Tuple_set.add [ x; z ] !out
              | _ -> assert false)
            (find_by ~col:0 y b)
        | _ -> assert false)
      a.tuples;
    make [ sa; sb ] !out
  | _ ->
    invalid_arg
      "Relation.compose: expects binary relations sharing their middle sort"

(** Transitive closure of a homogeneous binary relation, by semi-naive
    iteration: each round composes only the {e frontier} (pairs new in
    the previous round) with [r], so total work is proportional to the
    derivations actually produced instead of re-composing the whole
    accumulated closure every round. *)
let transitive_closure (r : t) : t =
  (match r.sorts with
   | [ s1; s2 ] when Sort.equal s1 s2 -> ()
   | _ ->
     invalid_arg
       "Relation.transitive_closure: expects a homogeneous binary relation");
  let rec go acc frontier =
    if is_empty frontier then acc
    else
      let next = diff (compose frontier r) acc in
      go (union acc next) next
  in
  go r r

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

(** Small general-purpose helpers used across the framework. *)

(** [cartesian [l1; ...; ln]] is the list of all [[x1; ...; xn]] with
    [xi] drawn from [li], in lexicographic order. [cartesian [] = [[]]]. *)
let cartesian (lists : 'a list list) : 'a list list =
  let add_layer layer acc =
    List.concat_map (fun x -> List.map (fun rest -> x :: rest) acc) layer
  in
  List.fold_right add_layer lists [ [] ]

(** All length-[n] tuples over [xs]. *)
let tuples xs n = cartesian (List.init n (fun _ -> xs))

let rec dedup ?(eq = ( = )) = function
  | [] -> []
  | x :: rest ->
    x :: dedup ~eq (List.filter (fun y -> not (eq x y)) rest)

(** Order-preserving deduplication in O(n) expected time: candidates
    bucket by [hash], and [eq] settles collisions. Agrees with
    {!dedup} whenever [hash] is consistent with [eq]. [[]] and [[x]]
    come back unchanged, without hashing anything. *)
let dedup_hashed ~(eq : 'a -> 'a -> bool) ~(hash : 'a -> int) (xs : 'a list) :
  'a list =
  match xs with
  | [] | [ _ ] -> xs
  | _ ->
    let tbl : (int, 'a) Hashtbl.t = Hashtbl.create 64 in
    List.filter
      (fun x ->
        let h = hash x in
        if List.exists (eq x) (Hashtbl.find_all tbl h) then false
        else begin
          Hashtbl.add tbl h x;
          true
        end)
      xs

(** [zip_exn xs ys] pairs two lists of equal length. *)
let zip_exn xs ys =
  try List.combine xs ys
  with Invalid_argument _ -> invalid_arg "Util.zip_exn: length mismatch"

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let sum = List.fold_left ( + ) 0

(* Process-wide fixpoint instrumentation: one round per frontier
   expansion, one state per distinct element accumulated. *)
let c_fixpoint_rounds = Metrics.counter "fixpoint.rounds"
let c_fixpoint_states = Metrics.counter "fixpoint.states"

(** Fixpoint of a monotone set-expansion step: repeatedly apply [step]
    to the frontier, accumulating states distinct under [eq], until no
    new element appears or [limit] elements have been accumulated.

    When [hash] (consistent with [eq]) is given, the visited set is a
    hash table and membership is O(1) expected instead of a linear scan
    over everything seen — the accumulation order, the result, and the
    truncation flag are identical either way. *)
let bfs_fixpoint ~eq ?hash ~limit ~(step : 'a -> 'a list) (starts : 'a list) :
  'a list * bool (* truncated? *) =
  match hash with
  | Some h ->
    let tbl : (int, 'a) Hashtbl.t = Hashtbl.create 256 in
    let seen_rev = ref [] in
    let count = ref 0 in
    let mem x = List.exists (eq x) (Hashtbl.find_all tbl (h x)) in
    let add x =
      Hashtbl.add tbl (h x) x;
      seen_rev := x :: !seen_rev;
      incr count;
      Metrics.incr c_fixpoint_states
    in
    let truncated = ref false in
    let rec loop frontier =
      match frontier with
      | [] -> ()
      | _ when !count >= limit -> truncated := true
      | _ ->
        Metrics.incr c_fixpoint_rounds;
        let next_rev = ref [] in
        List.iter
          (fun x ->
            List.iter
              (fun y ->
                if not (mem y) then
                  if !count < limit then begin
                    add y;
                    next_rev := y :: !next_rev
                  end
                  else truncated := true)
              (step x))
          frontier;
        loop (List.rev !next_rev)
    in
    List.iter (fun x -> if not (mem x) then add x) starts;
    loop (List.rev !seen_rev);
    (List.rev !seen_rev, !truncated)
  | None ->
    let seen = ref [] in
    let mem x = List.exists (eq x) !seen in
    let truncated = ref false in
    let rec loop frontier =
      match frontier with
      | [] -> ()
      | _ when List.length !seen >= limit -> truncated := true
      | _ ->
        Metrics.incr c_fixpoint_rounds;
        let next =
          List.concat_map step frontier
          |> List.filter (fun x -> not (mem x))
          |> dedup ~eq
        in
        let room = limit - List.length !seen in
        let next = if List.length next > room then (truncated := true; take room next) else next in
        Metrics.add c_fixpoint_states (List.length next);
        seen := !seen @ next;
        loop next
    in
    let starts = dedup ~eq starts in
    Metrics.add c_fixpoint_states (List.length starts);
    seen := starts;
    loop starts;
    (!seen, !truncated)

let result_all (results : ('a, 'e) result list) : ('a list, 'e) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok x :: rest -> go (x :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results

let pp_comma_list pp ppf xs = Fmt.(list ~sep:(any ", ") pp) ppf xs

(* Seeded workload generation: the schema, the store snapshot and the
   request streams of each workload come from the seed alone, and a
   model of the store predicts every answer the server must give. *)

open Fdbs_kernel
open Fdbs_rpr

type kind = Read_pipeline | Commit_large | Monitor_mix

let kinds = [ Read_pipeline; Commit_large; Monitor_mix ]

let name = function
  | Read_pipeline -> "read_pipeline"
  | Commit_large -> "commit_large"
  | Monitor_mix -> "monitor_mix"

let of_name s = List.find_opt (fun k -> name k = s) kinds

type params = {
  kind : kind;
  n : int;  (** TAKES tuples in the snapshot *)
  conns : int;  (** client connections *)
  window : int;  (** requests in flight per connection *)
  setups : int;  (** server starts per run; [setup_s] is their median *)
}

let courses = 8
let spares = 4
let reserve = 64

let params ?(n : int option) kind =
  match kind with
  | Read_pipeline ->
    { kind; n = Option.value n ~default:2000; conns = 2; window = 16; setups = 11 }
  | Commit_large ->
    { kind; n = Option.value n ~default:8000; conns = 2; window = 1; setups = 5 }
  | Monitor_mix ->
    { kind; n = Option.value n ~default:2000; conns = 1; window = 1; setups = 11 }

let course i = Fmt.str "c%d" i
let spare i = Fmt.str "x%d" i
let student i = Fmt.str "s%d" i

(* --- schemas and the monitored theory --- *)

(* The guarded schema of the monitor tests, plus a [leave] procedure so
   commits can shrink TAKES again. *)
let guarded_src =
  {|schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc retract(c: course) =
  if (~(exists s:student. TAKES(s, c))) then delete OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc leave(s: student, c: course) = delete TAKES(s, c)

end-schema
|}

let burst_k = 12

(* TAKES plus K copies of OFFERED, each guarded by a quantified
   constraint: the write-heavy constraint burst shape. *)
let burst_src =
  let rels =
    List.init burst_k (Fmt.str "relation OFFERED%d(course)") |> String.concat "\n"
  in
  let cons =
    List.init burst_k (fun i ->
        Fmt.str
          "constraint guard%d: forall s:student. forall c:course. (TAKES(s, c) \
           -> OFFERED%d(c))"
          i i)
    |> String.concat "\n"
  in
  Fmt.str
    "schema burst\nrelation TAKES(student, course)\n%s\n%s\n\
     proc enroll(s: student, c: course) = insert TAKES(s, c)\n\
     proc leave(s: student, c: course) = delete TAKES(s, c)\nend-schema\n"
    rels cons

let theory_src =
  {|theory guarded

sort course
sort student

pred offered : course
pred takes : student, course

axiom takes_offered: forall s:student, c:course. (takes(s, c) -> offered(c))

axiom no_retract: forall c:course. (offered(c) -> box offered(c))
|}

let schema_src p = match p.kind with Commit_large -> burst_src | _ -> guarded_src
let offered_rels p =
  match p.kind with
  | Commit_large -> List.init burst_k (Fmt.str "OFFERED%d")
  | _ -> [ "OFFERED" ]

(* --- the store and its model --- *)

type model = {
  takes : (string * string, unit) Hashtbl.t;
  takers : int array;  (** per offered course; spares never get takers *)
  offered : (string, unit) Hashtbl.t;
}

let course_index c = int_of_string (String.sub c 1 (String.length c - 1))

let model_add m (s, c) =
  Hashtbl.replace m.takes (s, c) ();
  m.takers.(course_index c) <- m.takers.(course_index c) + 1

let model_remove m (s, c) =
  Hashtbl.remove m.takes (s, c);
  m.takers.(course_index c) <- m.takers.(course_index c) - 1

(* A FIFO of tuples with random access, for the per-connection key
   pools. *)
module Ring = struct
  type t = { mutable a : (string * string) array; mutable head : int; mutable len : int }

  let create () = { a = Array.make 16 ("", ""); head = 0; len = 0 }

  let push r x =
    if r.len = Array.length r.a then begin
      let b = Array.make (2 * r.len) ("", "") in
      for i = 0 to r.len - 1 do
        b.(i) <- r.a.((r.head + i) mod r.len)
      done;
      r.a <- b;
      r.head <- 0
    end;
    r.a.((r.head + r.len) mod Array.length r.a) <- x;
    r.len <- r.len + 1

  let pop r =
    let x = r.a.(r.head) in
    r.head <- (r.head + 1) mod Array.length r.a;
    r.len <- r.len - 1;
    x

  let get r i = r.a.((r.head + i) mod Array.length r.a)
  let length r = r.len
end

(* The snapshot: n/2 students, each taking two distinct random courses;
   every offered relation holds all the courses. Per connection, a pool
   of the tuples it owns (students are dealt out round robin) and a
   reserve of absent tuples it may enroll. *)
type store = {
  tuples : (string * string) array;
  model : model;
  present : Ring.t array;  (** per connection *)
  absent : Ring.t array;  (** per connection *)
}

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let store ~seed p =
  let st = rng seed ("store", name p.kind, p.n) in
  let students = p.n / 2 in
  let pairs =
    Array.init students (fun _ ->
        let a = Random.State.int st courses in
        let b = (a + 1 + Random.State.int st (courses - 1)) mod courses in
        (a, b))
  in
  let model =
    {
      takes = Hashtbl.create (2 * p.n);
      takers = Array.make courses 0;
      offered = Hashtbl.create 16;
    }
  in
  for i = 0 to courses - 1 do
    Hashtbl.replace model.offered (course i) ()
  done;
  let present = Array.init p.conns (fun _ -> Ring.create ()) in
  let absent = Array.init p.conns (fun _ -> Ring.create ()) in
  let tuples = ref [] in
  Array.iteri
    (fun i (a, b) ->
      List.iter
        (fun c ->
          let t = (student i, course c) in
          model_add model t;
          tuples := t :: !tuples)
        [ a; b ])
    pairs;
  let tuples = Array.of_list (List.rev !tuples) in
  (* deal owned tuples out in a seeded order, so leaves hit the store
     all over, not in insertion order *)
  let order = Array.init (Array.length tuples) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iter
    (fun k ->
      let ((s, _) as t) = tuples.(k) in
      let owner = (int_of_string (String.sub s 1 (String.length s - 1))) mod p.conns in
      Ring.push present.(owner) t)
    order;
  let reserved = Hashtbl.create (reserve * p.conns) in
  for conn = 0 to p.conns - 1 do
    let added = ref 0 in
    while !added < reserve do
      let i = (Random.State.int st (students / p.conns) * p.conns) + conn in
      let t = (student i, course (Random.State.int st courses)) in
      if not (Hashtbl.mem model.takes t || Hashtbl.mem reserved t) then begin
        Hashtbl.add reserved t ();
        Ring.push absent.(conn) t;
        incr added
      end
    done
  done;
  { tuples; model; present; absent }

let db_of_store (schema : Schema.t) p (s : store) : Db.t =
  let sym x = Value.Sym x in
  let takes =
    Relation.of_list [ "student"; "course" ]
      (Array.to_list (Array.map (fun (a, b) -> [ sym a; sym b ]) s.tuples))
  in
  let offered =
    Relation.of_list [ "course" ] (List.init courses (fun i -> [ sym (course i) ]))
  in
  List.fold_left
    (fun db r -> Db.with_relation r offered db)
    (Db.with_relation "TAKES" takes (Schema.empty_db schema))
    (offered_rels p)

(* --- requests --- *)

type request =
  | Point of string * string  (** TAKES(ps, pc), ground via params *)
  | Exists of string  (** exists s:student. TAKES(s, pc) *)
  | Call of string * string list

type expect = Answer of bool | Committed

let is_read = function Point _ | Exists _ -> true | Call _ -> false

let point_wff = "TAKES(ps, pc)"
let exists_wff = "exists s:student. TAKES(s, pc)"

let wff_of = function
  | Point (s, c) ->
    (point_wff, [ ("ps", "student", s); ("pc", "course", c) ])
  | Exists c -> (exists_wff, [ ("pc", "course", c) ])
  | Call _ -> invalid_arg "wff_of: not a query"

let call_string name args = Fmt.str "%s(%s)" name (String.concat ", " args)

let frame ~id (r : request) : string =
  match r with
  | Call (p, args) ->
    Fmt.str {|{"id": %d, "op": "run", "calls": ["%s"]}|} id (call_string p args)
  | Point _ | Exists _ ->
    let wff, params = wff_of r in
    Fmt.str {|{"id": %d, "op": "query", "wff": "%s", "params": [%s]}|} id wff
      (String.concat ", "
         (List.map (fun (n, srt, v) -> Fmt.str {|["%s", "%s", "%s"]|} n srt v) params))

(* One connection's request stream. The model is shared by every
   stream of a run: commit_large streams own disjoint keys, the other
   workloads have a single writer, so answers predicted at send time
   are exact. *)
type stream = {
  p : params;
  conn : int;
  rng : Random.State.t;
  store : store;
  mutable enroll_next : bool;
  mutable spare_open : int option;  (** offered spare awaiting retract *)
  mutable spare_next : int;
}

let stream ~seed store p conn =
  {
    p;
    conn;
    rng = rng seed ("stream", name p.kind, conn);
    store;
    enroll_next = true;
    spare_open = None;
    spare_next = 0;
  }

let model_of s = s.store.model

let read s =
  let m = model_of s in
  let st = s.rng in
  if Random.State.int st 100 < 80 then
    if Random.State.bool st then begin
      (* hit: a tuple the store holds now *)
      let pool = s.store.present.(Random.State.int st s.p.conns) in
      let (a, c) = Ring.get pool (Random.State.int st (Ring.length pool)) in
      (Point (a, c), Answer (Hashtbl.mem m.takes (a, c)))
    end
    else begin
      let rec miss () =
        let a = student (Random.State.int st (s.p.n / 2)) in
        let c = course (Random.State.int st courses) in
        if Hashtbl.mem m.takes (a, c) then miss () else (a, c)
      in
      let a, c = miss () in
      (Point (a, c), Answer false)
    end
  else
    let i = Random.State.int st (courses + spares) in
    if i < courses then (Exists (course i), Answer (m.takers.(i) > 0))
    else (Exists (spare (i - courses)), Answer false)

(* Alternate an enroll of the oldest absent key with a leave of the
   oldest present one: the store stays at n, and every key comes back
   only after a full trip through the pools. *)
let toggle s =
  let m = model_of s in
  let present = s.store.present.(s.conn) and absent = s.store.absent.(s.conn) in
  let enroll = s.enroll_next in
  s.enroll_next <- not enroll;
  if enroll then begin
    let ((a, c) as t) = Ring.pop absent in
    model_add m t;
    Ring.push present t;
    (Call ("enroll", [ a; c ]), Committed)
  end
  else begin
    let ((a, c) as t) = Ring.pop present in
    model_remove m t;
    Ring.push absent t;
    (Call ("leave", [ a; c ]), Committed)
  end

(* Offer a spare course, then retract it: every retract breaks the
   no_retract transition axiom once. *)
let offer_retract s =
  let m = model_of s in
  match s.spare_open with
  | None ->
    let i = s.spare_next in
    s.spare_next <- (i + 1) mod spares;
    s.spare_open <- Some i;
    Hashtbl.replace m.offered (spare i) ();
    (Call ("offer", [ spare i ]), Committed)
  | Some i ->
    s.spare_open <- None;
    Hashtbl.remove m.offered (spare i);
    (Call ("retract", [ spare i ]), Committed)

let next (s : stream) : request * expect =
  match s.p.kind with
  | Read_pipeline -> read s
  | Commit_large -> toggle s
  | Monitor_mix ->
    let r = Random.State.int s.rng 100 in
    if r < 60 then read s
    else if r < 80 then toggle s
    else offer_retract s

let is_retract = function Call ("retract", _) -> true | _ -> false

(* --- checking the store against the model --- *)

let model_relations p (m : model) : (string * (string list) list) list =
  let takes =
    Hashtbl.fold (fun (a, c) () acc -> [ a; c ] :: acc) m.takes []
  in
  let offered = Hashtbl.fold (fun c () acc -> [ c ] :: acc) m.offered [] in
  ("TAKES", takes) :: List.map (fun r -> (r, offered)) (offered_rels p)

(* Compare a [state] reply's relations with the model; the mismatches
   as readable lines (empty when they agree). *)
let check_state p (m : model) (state : Json.t) : string list =
  let rels = Option.value ~default:Json.Null (Json.field "relations" state) in
  List.concat_map
    (fun (r, expected) ->
      let got =
        match Option.bind (Json.field r rels) Json.to_list_opt with
        | None -> None
        | Some tuples ->
          Some
            (List.map
               (fun t ->
                 List.filter_map Json.to_string_opt
                   (Option.value ~default:[] (Json.to_list_opt t)))
               tuples)
      in
      match got with
      | None -> [ Fmt.str "state has no relation %s" r ]
      | Some got ->
        let sort = List.sort compare in
        if sort got = sort expected then []
        else
          [
            Fmt.str "relation %s: server has %d tuples, model %d (or contents differ)"
              r (List.length got) (List.length expected);
          ])
    (model_relations p m)

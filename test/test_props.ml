(* Cross-cutting property tests (qcheck): invariants the framework's
   correctness rests on, exercised on random inputs. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_algebra
open Fdbs_rpr

let v s = Value.Sym s

(* ------------------------------------------------------------------ *)
(* Random traces of the university specification                       *)
(* ------------------------------------------------------------------ *)

let university = Fdbs.University.functions

let small_domain = Fdbs.University.small_domain
let domain = Fdbs.University.domain

let random_trace_gen dom =
  let open QCheck.Gen in
  let courses = Domain.carrier dom "course" in
  let students = Domain.carrier dom "student" in
  let update =
    oneof
      [
        map (fun c -> ("offer", [ c ])) (oneofl courses);
        map (fun c -> ("cancel", [ c ])) (oneofl courses);
        map2 (fun s c -> ("enroll", [ s; c ])) (oneofl students) (oneofl courses);
        map3
          (fun s c c2 -> ("transfer", [ s; c; c2 ]))
          (oneofl students) (oneofl courses) (oneofl courses);
      ]
  in
  let* len = int_range 0 8 in
  let* steps = list_repeat len update in
  return
    (List.fold_left
       (fun acc (u, args) -> Strace.apply u args acc)
       (Strace.init "initiate") steps)

let arbitrary_trace dom = QCheck.make ~print:Strace.to_string (random_trace_gen dom)

let arbitrary_trace_pair dom =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a / %a" Strace.pp a Strace.pp b)
    QCheck.Gen.(pair (random_trace_gen dom) (random_trace_gen dom))

(* Strace round-trip through algebraic terms. *)
let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace to_aterm/of_aterm roundtrip" ~count:200
    (arbitrary_trace domain) (fun t ->
      match Strace.of_aterm university.Spec.signature
              (Strace.to_aterm university.Spec.signature t)
      with
      | Some t' -> Strace.equal t t'
      | None -> false)

(* Observational equivalence is preserved by applying the same update:
   the congruence property underlying the quotient graph construction. *)
let prop_equiv_congruence =
  QCheck.Test.make ~name:"observational equivalence is a congruence" ~count:100
    (arbitrary_trace_pair small_domain) (fun (t1, t2) ->
      QCheck.assume (Observe.equiv ~domain:small_domain university t1 t2);
      List.for_all
        (fun (u, args) ->
          Observe.equiv ~domain:small_domain university
            (Strace.apply u args t1) (Strace.apply u args t2))
        [
          ("offer", [ v "cs101" ]);
          ("cancel", [ v "cs101" ]);
          ("enroll", [ v "ana"; v "cs101" ]);
        ])

(* The static constraint holds on every random trace (4.4b, randomized). *)
let prop_static_invariant =
  QCheck.Test.make ~name:"static constraint holds on random traces" ~count:200
    (arbitrary_trace domain) (fun t ->
      let dom = domain in
      List.for_all
        (fun c ->
          List.for_all
            (fun s ->
              let takes =
                Eval.query_on_trace ~domain:dom university ~q:"takes"
                  ~params:[ s; c ] t
              in
              let offered =
                Eval.query_on_trace ~domain:dom university ~q:"offered" ~params:[ c ] t
              in
              match (takes, offered) with
              | Ok (Value.Bool true), Ok (Value.Bool o) -> o
              | Ok _, Ok _ -> true
              | _ -> false)
            (Domain.carrier dom "student"))
        (Domain.carrier dom "course"))

(* Level-2 rewriting and level-3 procedures agree on random traces. *)
let prop_cross_level_random =
  QCheck.Test.make ~name:"levels 2 and 3 agree on random traces" ~count:100
    (arbitrary_trace domain) (fun t ->
      let env = Semantics.env ~domain Fdbs.University.representation in
      let rec db_of = function
        | Strace.Init _ ->
          Semantics.call_det_exn env "initiate" []
            (Schema.empty_db Fdbs.University.representation)
        | Strace.Apply (u, args, rest) -> Semantics.call_det_exn env u args (db_of rest)
      in
      let db = db_of t in
      List.for_all
        (fun c ->
          let l2 =
            Eval.query_on_trace ~domain university ~q:"offered" ~params:[ c ] t
          in
          let l3 =
            Semantics.query env db (Formula.Pred ("OFFERED", [ Term.Lit c ]))
          in
          match l2 with Ok (Value.Bool b) -> b = l3 | _ -> false)
        (Domain.carrier domain "course"))

(* ------------------------------------------------------------------ *)
(* Relational algebra laws on random relations                         *)
(* ------------------------------------------------------------------ *)

let random_relation_gen =
  let open QCheck.Gen in
  let value = map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5) in
  let tuple = pair value value in
  let* tuples = list_size (int_range 0 12) tuple in
  return (Relation.of_list [ "a"; "b" ] (List.map (fun (x, y) -> [ x; y ]) tuples))

let arbitrary_relation =
  QCheck.make ~print:(Fmt.str "%a" Relation.pp) random_relation_gen

let arbitrary_relation_pair =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a / %a" Relation.pp a Relation.pp b)
    QCheck.Gen.(pair random_relation_gen random_relation_gen)

let prop_union_commutative =
  QCheck.Test.make ~name:"relation union commutative" ~count:200 arbitrary_relation_pair
    (fun (a, b) -> Relation.equal (Relation.union a b) (Relation.union b a))

let prop_diff_inter_disjoint =
  QCheck.Test.make ~name:"diff and inter partition" ~count:200 arbitrary_relation_pair
    (fun (a, b) ->
      let d = Relation.diff a b and i = Relation.inter a b in
      Relation.equal a (Relation.union d i) && Relation.is_empty (Relation.inter d b))

let prop_select_distributes_over_union =
  QCheck.Test.make ~name:"selection distributes over union" ~count:200
    arbitrary_relation_pair (fun (a, b) ->
      let p row = match row with x :: _ -> Value.equal x (Value.Sym "v0") | [] -> false in
      Relation.equal
        (Relation.filter p (Relation.union a b))
        (Relation.union (Relation.filter p a) (Relation.filter p b)))

let prop_active_domain_covers =
  QCheck.Test.make ~name:"active domain covers every tuple value" ~count:200
    arbitrary_relation (fun r ->
      let d = Relation.active_domain r in
      Relation.for_all
        (fun row ->
          List.for_all2 (fun value srt -> Domain.mem d srt value) row (Relation.sorts r))
        r)

(* ------------------------------------------------------------------ *)
(* Set-backed domains against the list-rebuilding oracles              *)
(* ------------------------------------------------------------------ *)

(* Values of every kind over two named sorts and [bool]; [bool]-sorted
   positions hold booleans, as in any well-typed state. *)
let domain_sorts = [ "a"; "b"; Sort.bool ]

let value_of_sort_gen srt =
  let open QCheck.Gen in
  if Sort.is_bool srt then map (fun b -> Value.Bool b) bool
  else
    oneof
      [
        map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5);
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun b -> Value.Bool b) bool;
      ]

let old_extend srt v d = Domain.add srt (v :: Domain.carrier d srt) d

let same_domain d1 d2 =
  String.equal (Fmt.str "%a" Domain.pp d1) (Fmt.str "%a" Domain.pp d2)
  && List.equal Sort.equal (Domain.sorts d1) (Domain.sorts d2)
  && List.for_all
       (fun srt ->
         List.equal Value.equal (Domain.carrier d1 srt) (Domain.carrier d2 srt)
         && List.for_all
              (fun v -> Domain.mem d1 srt v = Domain.mem d2 srt v)
              (Value.Bool true :: Value.Int 0 :: Value.Sym "v0" :: Value.Sym "zz"
               :: Domain.carrier d2 srt))
       domain_sorts

let prop_domain_extend_oracle =
  QCheck.Test.make ~name:"Domain.extend agrees with add over the carrier" ~count:300
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list (pair ~sep:(any ":") string Value.pp)))
       QCheck.Gen.(
         list_size (int_range 0 30)
           (let* srt = oneofl domain_sorts in
            let* v = value_of_sort_gen srt in
            return (srt, v))))
    (fun steps ->
      let d_new = List.fold_left (fun d (srt, v) -> Domain.extend srt v d) Domain.empty steps in
      let d_old = List.fold_left (fun d (srt, v) -> old_extend srt v d) Domain.empty steps in
      same_domain d_new d_old)

(* The per-tuple fold [Relation.active_domain] used to run. *)
let old_active_domain r =
  Relation.fold
    (fun tu acc -> List.fold_left2 (fun acc v srt -> old_extend srt v acc) acc tu (Relation.sorts r))
    r Domain.empty

(* The list-concatenating union [Domain.union] used to be. *)
let old_union d1 d2 =
  List.fold_left
    (fun d srt -> Domain.add srt (Domain.carrier d1 srt @ Domain.carrier d2 srt) d)
    Domain.empty
    (List.sort_uniq Sort.compare (Domain.sorts d1 @ Domain.sorts d2))

let random_sorted_relation_gen =
  let open QCheck.Gen in
  let* sorts = list_size (int_range 1 3) (oneofl domain_sorts) in
  let tuple = flatten_l (List.map value_of_sort_gen sorts) in
  let* tuples = list_size (int_range 0 12) tuple in
  return (Relation.of_list sorts tuples)

let prop_active_domain_oracle =
  QCheck.Test.make ~name:"active domain agrees with the per-tuple fold" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Fmt.str "%a / %a" Relation.pp a Relation.pp b)
       QCheck.Gen.(pair random_sorted_relation_gen random_sorted_relation_gen))
    (fun (r1, r2) ->
      let db = Db.empty |> Db.with_relation "R1" r1 |> Db.with_relation "R2" r2 in
      same_domain (Relation.active_domain r1) (old_active_domain r1)
      && same_domain (Db.active_domain db)
           (old_union (old_union Domain.empty (old_active_domain r1)) (old_active_domain r2)))

(* ------------------------------------------------------------------ *)
(* The indexed relation is observationally a list model                *)
(* ------------------------------------------------------------------ *)

(* Oracle: plain sorted-unique tuple lists with naive list operations.
   Every observable of the hash-indexed Relation must agree with it. *)
let tuple_compare = List.compare Value.compare
let model_of_list tuples = List.sort_uniq tuple_compare tuples

let random_tuples_gen n_values size =
  let open QCheck.Gen in
  let value = map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 n_values) in
  list_size (int_range 0 size) (map (fun (x, y) -> [ x; y ]) (pair value value))

let arbitrary_tuples_and_probe =
  QCheck.make
    ~print:(fun (tus, probe) ->
      Fmt.str "%a ? %a" Fmt.(list Relation.Tuple.pp) tus Relation.Tuple.pp probe)
    QCheck.Gen.(
      pair (random_tuples_gen 5 40)
        (map2 (fun x y -> [ x; y ])
           (map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5))
           (map (fun i -> Value.Sym (Fmt.str "v%d" i)) (int_range 0 5))))

let prop_model_membership =
  QCheck.Test.make ~name:"indexed membership agrees with the list model" ~count:300
    arbitrary_tuples_and_probe (fun (tuples, probe) ->
      let r = Relation.of_list [ "a"; "b" ] tuples in
      (* probe before and after the lazy membership table exists: the
         first answers come from the tree, the later ones from the
         table *)
      let answers = List.init 20 (fun _ -> Relation.mem probe r) in
      let model = List.exists (fun tu -> tuple_compare tu probe = 0) tuples in
      List.for_all (Bool.equal model) answers)

let prop_model_union_to_list =
  QCheck.Test.make ~name:"union/to_list agree with the list model" ~count:200
    arbitrary_relation_pair (fun (a, b) ->
      let model =
        model_of_list (Relation.to_list a @ Relation.to_list b)
      in
      Relation.to_list (Relation.union a b) = model)

let prop_model_equal_and_hash =
  QCheck.Test.make ~name:"equality matches the list model; equal => same hash"
    ~count:300 arbitrary_relation_pair (fun (a, b) ->
      let model_eq = Relation.to_list a = Relation.to_list b in
      Relation.equal a b = model_eq
      && ((not model_eq) || Relation.hash a = Relation.hash b))

(* compose needs sorts [a; m] / [m; b]; build both sides from scratch *)
let arbitrary_composable =
  QCheck.make
    ~print:(fun (xs, ys) ->
      Fmt.str "%a ; %a" Fmt.(list Relation.Tuple.pp) xs Fmt.(list Relation.Tuple.pp) ys)
    QCheck.Gen.(pair (random_tuples_gen 4 25) (random_tuples_gen 4 25))

let prop_model_compose =
  QCheck.Test.make ~name:"indexed compose agrees with the list model" ~count:300
    arbitrary_composable (fun (xs, ys) ->
      let a = Relation.of_list [ "a"; "m" ] xs in
      let b = Relation.of_list [ "m"; "b" ] ys in
      let model =
        model_of_list
          (List.concat_map
             (fun tu ->
               match tu with
               | [ x; y ] ->
                 List.filter_map
                   (function
                     | [ y'; z ] when Value.equal y y' -> Some [ x; z ]
                     | _ -> None)
                   ys
               | _ -> [])
             xs)
      in
      Relation.to_list (Relation.compose a b) = model)

let prop_model_closure =
  QCheck.Test.make ~name:"transitive closure agrees with the list model" ~count:200
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list Relation.Tuple.pp))
       (random_tuples_gen 4 12))
    (fun edges ->
      let r = Relation.of_list [ "n"; "n" ] edges in
      (* naive closure on lists: iterate edge-extension to fixpoint *)
      let extend paths =
        model_of_list
          (paths
          @ List.concat_map
              (fun p ->
                match p with
                | [ x; y ] ->
                  List.filter_map
                    (function
                      | [ y'; z ] when Value.equal y y' -> Some [ x; z ]
                      | _ -> None)
                    edges
                | _ -> [])
              paths)
      in
      let rec fix paths =
        let next = extend paths in
        if next = paths then paths else fix next
      in
      Relation.to_list (Relation.transitive_closure r) = fix (model_of_list edges))

(* ------------------------------------------------------------------ *)
(* The chunked text cache renders what a cold relation renders         *)
(* ------------------------------------------------------------------ *)

(* Two renderers, so a stream can check that one never reuses the
   other's cached bytes. *)
let render_plain buf tu = Buffer.add_string buf (Fmt.str "%a" Relation.Tuple.pp tu)

let render_tagged buf tu =
  Buffer.add_char buf '<';
  render_plain buf tu;
  Buffer.add_char buf '>'

let text ~render r =
  let buf = Buffer.create 256 in
  Relation.render_text ~render buf r;
  Buffer.contents buf

(* The oracle: a cold relation of the same tuples, whose render must
   itself be the tuples' renders joined by ", ". *)
let cold_text ~render r =
  let cold = text ~render (Relation.of_list (Relation.sorts r) (Relation.to_list r)) in
  let joined =
    String.concat ", "
      (List.map
         (fun tu ->
           let buf = Buffer.create 16 in
           render buf tu;
           Buffer.contents buf)
         (Relation.to_list r))
  in
  if cold <> joined then QCheck.Test.fail_reportf "cold render %S <> %S" cold joined;
  cold

type text_op =
  | Add of int * int
  | Remove of int * int
  | Remove_split of int  (** the tuple at this multiple of 64 *)
  | Append of int  (** tuples past the largest one, hence the last split *)
  | Clear
  | Render
  | Render_other

let pp_text_op ppf = function
  | Add (x, y) -> Fmt.pf ppf "add(%d,%d)" x y
  | Remove (x, y) -> Fmt.pf ppf "remove(%d,%d)" x y
  | Remove_split j -> Fmt.pf ppf "remove-split(%d)" j
  | Append k -> Fmt.pf ppf "append(%d)" k
  | Clear -> Fmt.pf ppf "clear"
  | Render -> Fmt.pf ppf "render"
  | Render_other -> Fmt.pf ppf "render-other"

let int_tuple (x, y) = [ Value.Int x; Value.Int y ]

let text_stream_gen =
  let open QCheck.Gen in
  let point = pair (int_range 0 400) (int_range 0 3) in
  let op =
    frequency
      [
        (6, map (fun p -> Add (fst p, snd p)) point);
        (4, map (fun p -> Remove (fst p, snd p)) point);
        (2, map (fun j -> Remove_split j) (int_range 0 8));
        (2, map (fun k -> Append k) (int_range 1 150));
        (1, return Clear);
        (5, return Render);
        (1, return Render_other);
      ]
  in
  pair (list_size (int_range 0 400) point) (list_size (int_range 1 60) op)

(* Apply [op] to [r]: every write goes through [add]/[remove], the
   operations that carry the text cache to the new version. *)
let apply_text_op r = function
  | Add (x, y) -> Relation.add (int_tuple (x, y)) r
  | Remove (x, y) -> Relation.remove (int_tuple (x, y)) r
  | Remove_split j ->
    let tuples = Relation.to_list r in
    if tuples = [] then r
    else Relation.remove (List.nth tuples (j * 64 mod List.length tuples)) r
  | Append k ->
    let top =
      Relation.fold
        (fun tu acc -> match tu with Value.Int x :: _ -> max x acc | _ -> acc)
        r 0
    in
    List.fold_left (fun r i -> Relation.add (int_tuple (top + 1 + i, 0)) r) r
      (List.init k Fun.id)
  | Clear -> Relation.fold Relation.remove r r
  | Render | Render_other -> r

let prop_render_text_cold =
  QCheck.Test.make ~name:"chunked render_text equals a cold render" ~count:200
    (QCheck.make
       ~print:(fun (init, ops) ->
         Fmt.str "%d initial tuples; %a" (List.length init)
           Fmt.(list ~sep:sp pp_text_op)
           ops)
       text_stream_gen)
    (fun (init, ops) ->
      let check ~render r =
        let got = text ~render r and want = cold_text ~render r in
        if got <> want then QCheck.Test.fail_reportf "render %S <> cold %S" got want
      in
      let r0 = Relation.of_list [ "a"; "b" ] (List.map int_tuple init) in
      check ~render:render_plain r0;
      let rendered = ref [ r0 ] in
      let last =
        List.fold_left
          (fun r op ->
            let r' = apply_text_op r op in
            (match op with
             | Render ->
               check ~render:render_plain r';
               rendered := r' :: !rendered
             | Render_other -> check ~render:render_tagged r'
             | _ -> ());
            r')
          r0 ops
      in
      check ~render:render_plain last;
      (* versions share chunks; rendering a newer one never disturbs
         an older one's text *)
      List.iter (check ~render:render_plain) !rendered;
      true)

(* Two domains render the same partly stale value at once; each result
   is checked, and so is the text the race left published. *)
let prop_render_text_parallel =
  QCheck.Test.make ~name:"concurrent render_text calls agree with the cold render"
    ~count:50
    (QCheck.make
       ~print:(fun (init, ops) ->
         Fmt.str "%d initial tuples; %a" (List.length init)
           Fmt.(list ~sep:sp pp_text_op)
           ops)
       text_stream_gen)
    (fun (init, ops) ->
      let r0 = Relation.of_list [ "a"; "b" ] (List.map int_tuple init) in
      ignore (text ~render:render_plain r0 : string);
      let r = List.fold_left apply_text_op r0 ops in
      let want = cold_text ~render:render_plain r in
      List.for_all (String.equal want)
        (Pool.map ~jobs:2 (fun () -> text ~render:render_plain r) [ (); () ])
      && text ~render:render_plain r = want)

(* ------------------------------------------------------------------ *)
(* Column indexes carried across versions answer as a cold value does  *)
(* ------------------------------------------------------------------ *)

type index_op =
  | Iadd of Value.t list
  | Iremove of Value.t list
  | Ipatch of Value.t list list * Value.t list list  (** inserts, deletes *)
  | Iprobe of int * int  (** column, value *)

let pp_index_op ppf =
  let tu = Relation.Tuple.pp and tus = Fmt.(list ~sep:sp Relation.Tuple.pp) in
  function
  | Iadd t -> Fmt.pf ppf "add%a" tu t
  | Iremove t -> Fmt.pf ppf "remove%a" tu t
  | Ipatch (ins, del) -> Fmt.pf ppf "patch(+[%a] -[%a])" tus ins tus del
  | Iprobe (col, x) -> Fmt.pf ppf "probe(#%d=%d)" col x

(* Few values per column, so lookups hit and writes collide. *)
let index_values = 5
let index_sorts = [ "a"; "b"; "c" ]

let index_tuple_gen =
  QCheck.Gen.(
    map3
      (fun a b c -> [ Value.Int a; Value.Int b; Value.Int c ])
      (int_bound index_values) (int_bound index_values) (int_bound index_values))

let index_stream_gen =
  let open QCheck.Gen in
  let tuples = list_size (int_range 0 6) index_tuple_gen in
  let op =
    frequency
      [
        (4, map (fun t -> Iadd t) index_tuple_gen);
        (3, map (fun t -> Iremove t) index_tuple_gen);
        (2, map2 (fun ins del -> Ipatch (ins, del)) tuples tuples);
        (3, map2 (fun col x -> Iprobe (col, x)) (int_bound 2) (int_bound index_values));
      ]
  in
  pair (list_size (int_range 0 40) index_tuple_gen) (list_size (int_range 1 40) op)

(* Every column lookup on [r] equals the filter of a cold value of the
   same tuples. *)
let probes_agree r =
  let cold = Relation.of_list index_sorts (Relation.to_list r) in
  List.for_all
    (fun col ->
      List.for_all
        (fun x ->
          let v = Value.Int x in
          Relation.equal (Relation.find_by ~col v r)
            (Relation.filter (fun tu -> Value.equal (List.nth tu col) v) cold))
        (List.init (index_values + 1) Fun.id))
    [ 0; 1; 2 ]

let prop_carried_indexes =
  QCheck.Test.make ~name:"carried column indexes answer as a cold value does" ~count:300
    (QCheck.make
       ~print:(fun (init, ops) ->
         Fmt.str "%d initial tuples; %a" (List.length init)
           Fmt.(list ~sep:sp pp_index_op)
           ops)
       index_stream_gen)
    (fun (init, ops) ->
      let rel tuples = Relation.of_list index_sorts tuples in
      let step r = function
        | Iadd t -> Relation.add t r
        | Iremove t -> Relation.remove t r
        | Ipatch (ins, del) ->
          let r' = Relation.patch ~ins:(rel ins) ~del:(rel del) r in
          let want = Relation.union (Relation.diff r (rel del)) (rel ins) in
          if not (Relation.equal r' want) then
            QCheck.Test.fail_reportf "patch gave %a, want %a" Relation.pp r' Relation.pp want;
          r'
        | Iprobe (col, x) ->
          ignore (Relation.find_by ~col (Value.Int x) r : Relation.t);
          r
      in
      let versions = List.fold_left (fun vs op -> step (List.hd vs) op :: vs) [ rel init ] ops in
      (* every version, old and new, after all the writes *)
      List.for_all probes_agree versions
      &&
      (* two domains race to build one cold value's indexes *)
      let cold = rel (Relation.to_list (List.hd versions)) in
      List.for_all Fun.id (Pool.map ~jobs:2 (fun () -> probes_agree cold) [ (); () ]))

(* The indexed Denote.compose agrees with the retained naive oracle. *)
let prop_denote_compose_equiv =
  QCheck.Test.make ~name:"Denote.compose agrees with compose_naive" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_bound 20) (int_bound 20)))
        (small_list (pair (int_bound 20) (int_bound 20))))
    (fun (r1, r2) ->
      Denote.compose r1 r2 = Denote.compose_naive r1 r2)

(* ------------------------------------------------------------------ *)
(* Desugaring preserves the semantics of derived statements            *)
(* ------------------------------------------------------------------ *)

let schema = Fdbs.University.representation

let random_stmt_gen =
  let open QCheck.Gen in
  let course = oneofl [ v "cs101"; v "cs102" ] in
  let student = oneofl [ v "ana"; v "bob" ] in
  let atom =
    oneof
      [
        map (fun c -> Stmt.Insert ("OFFERED", [ Term.Lit c ])) course;
        map (fun c -> Stmt.Delete ("OFFERED", [ Term.Lit c ])) course;
        map2 (fun s c -> Stmt.Insert ("TAKES", [ Term.Lit s; Term.Lit c ])) student course;
        map2 (fun s c -> Stmt.Delete ("TAKES", [ Term.Lit s; Term.Lit c ])) student course;
        return Stmt.Skip;
      ]
  in
  let cond = map (fun c -> Formula.Pred ("OFFERED", [ Term.Lit c ])) course in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun a b -> Stmt.Seq (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun a b -> Stmt.Union (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map3 (fun c a b -> Stmt.If (c, a, b)) cond (gen (n / 2)) (gen (n / 2)));
          (1, map (fun c -> Stmt.Test c) cond);
        ]
  in
  gen 6

let arbitrary_stmt = QCheck.make ~print:(Fmt.str "%a" Stmt.pp) random_stmt_gen

let prop_desugar_preserves_semantics =
  QCheck.Test.make ~name:"desugaring preserves statement outcomes" ~count:150
    arbitrary_stmt (fun s ->
      let env = Semantics.env ~domain schema in
      let db0 =
        Semantics.call_det_exn env "initiate" [] (Schema.empty_db schema)
        |> Db.with_relation "OFFERED"
             (Relation.of_list [ "course" ] [ [ v "cs101" ] ])
      in
      let core = Stmt.desugar ~sorts_of:(Schema.sorts_of schema) s in
      let norm outs = List.sort compare (List.map (fun (db, _) -> Db.key db) outs) in
      norm (Semantics.exec env s db0) = norm (Semantics.exec env core db0))

(* Relational-term evaluation strategies agree on random statements'
   desugared assignments. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"naive and compiled strategies agree on exec" ~count:150
    arbitrary_stmt (fun s ->
      let env_naive = Semantics.env ~strategy:`Naive ~domain schema in
      let env_auto = Semantics.env ~strategy:`Auto ~domain schema in
      let db0 = Semantics.call_det_exn env_auto "initiate" [] (Schema.empty_db schema) in
      let core = Stmt.desugar ~sorts_of:(Schema.sorts_of schema) s in
      let norm outs = List.sort compare (List.map (fun (db, _) -> Db.key db) outs) in
      norm (Semantics.exec env_naive core db0) = norm (Semantics.exec env_auto core db0))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_trace_roundtrip;
      prop_equiv_congruence;
      prop_static_invariant;
      prop_cross_level_random;
      prop_union_commutative;
      prop_diff_inter_disjoint;
      prop_select_distributes_over_union;
      prop_active_domain_covers;
      prop_domain_extend_oracle;
      prop_active_domain_oracle;
      prop_model_membership;
      prop_model_union_to_list;
      prop_model_equal_and_hash;
      prop_model_compose;
      prop_model_closure;
      prop_render_text_cold;
      prop_render_text_parallel;
      prop_carried_indexes;
      prop_denote_compose_equiv;
      prop_desugar_preserves_semantics;
      prop_strategies_agree;
    ]

(* The synthesized schema and the paper's hand schema compute the same
   database on random traces. *)
let synthesized_schema =
  match
    Fdbs_refine.Synthesize.schema ~name:"university_synth"
      university.Spec.signature Fdbs.University.descriptions
  with
  | Ok sc -> sc
  | Error e -> invalid_arg e.Fdbs_kernel.Error.message

let prop_synthesized_agrees_on_random_traces =
  QCheck.Test.make ~name:"synthesized schema agrees with hand schema" ~count:100
    (arbitrary_trace domain) (fun t ->
      let run sc =
        let env = Semantics.env ~domain sc in
        let rec db_of = function
          | Strace.Init _ -> Semantics.call_det_exn env "initiate" [] (Schema.empty_db sc)
          | Strace.Apply (u, args, rest) -> Semantics.call_det_exn env u args (db_of rest)
        in
        db_of t
      in
      let a = run Fdbs.University.representation in
      let b = run synthesized_schema in
      (* compare the relation contents modulo the relations' names,
         which coincide for the university *)
      List.for_all2
        (fun (n1, r1) (n2, r2) -> n1 = n2 && Relation.equal r1 r2)
        (Db.relations a) (Db.relations b))

(* Observational equivalence is an equivalence relation on random traces. *)
let prop_equiv_reflexive_symmetric =
  QCheck.Test.make ~name:"observational equivalence reflexive and symmetric" ~count:100
    (arbitrary_trace_pair small_domain) (fun (t1, t2) ->
      Observe.equiv ~domain:small_domain university t1 t1
      && Observe.equiv ~domain:small_domain university t1 t2
         = Observe.equiv ~domain:small_domain university t2 t1)

(* ------------------------------------------------------------------ *)
(* The query planner: full safe-calculus compilation and the plan cache *)
(* ------------------------------------------------------------------ *)

(* The constants a ground argument may name, bound through [~consts]:
   values of the carriers, which a random state may or may not hold. *)
let prop_consts = [ ("ka", v "ana"); ("kb", v "bob"); ("kc", v "cs101"); ("kd", v "cs102") ]

(* Random safe bodies over TAKES/OFFERED with head (s, c) — including
   quantifiers and negation. Safety comes from the positive TAKES(s, c)
   guard conjoined at the top, present in every DNF clause; every
   quantified subformula uses its bound variable, so nothing falls back
   to the carrier. Atoms also take ground arguments — [prop_consts]
   names and literals, some outside every relation — on both columns
   of TAKES, on column 0 only and on column 1 only, so a selection over
   a stored relation is answered by a membership probe, a range and an
   index lookup, and a quantified one by an emptiness test. *)
let random_safe_rterm_gen =
  let open QCheck.Gen in
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let s2 = { Term.vname = "s2"; vsort = "student" } in
  let c2 = { Term.vname = "c2"; vsort = "course" } in
  let takes a b = Formula.Pred ("TAKES", [ Term.Var a; Term.Var b ]) in
  let offered a = Formula.Pred ("OFFERED", [ Term.Var a ]) in
  let const k = Term.App (k, []) in
  let student =
    oneofl [ const "ka"; const "kb"; Term.Lit (v "ana"); Term.Lit (v "zed") ]
  in
  let course =
    oneofl [ const "kc"; const "kd"; Term.Lit (v "cs102"); Term.Lit (v "cs999") ]
  in
  let ground_takes a b = Formula.Pred ("TAKES", [ a; b ]) in
  let ground_atom =
    oneof
      [
        map2 ground_takes student course;
        map (fun a -> ground_takes a (Term.Var cv)) student;
        map (fun b -> ground_takes (Term.Var sv) b) course;
        map (fun b -> Formula.Pred ("OFFERED", [ b ])) course;
        map (fun b -> Formula.Exists (s2, ground_takes (Term.Var s2) b)) course;
        map (fun a -> Formula.Exists (c2, ground_takes a (Term.Var c2))) student;
      ]
  in
  let atom =
    frequency
      [
        ( 3,
          oneofl
            [
              takes sv cv;
              offered cv;
              Formula.Eq (Term.Var cv, Term.Lit (v "cs101"));
              Formula.Eq (Term.Var sv, Term.Lit (v "ana"));
              Formula.Exists (s2, takes s2 cv);
              Formula.Exists (c2, Formula.And (takes sv c2, offered c2));
              Formula.Forall (s2, Formula.Imp (takes s2 cv, offered cv));
              Formula.Forall (c2, Formula.Imp (takes sv c2, offered c2));
            ] );
        (2, ground_atom);
      ]
  in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map (fun f -> Formula.Not f) (gen (n - 1)));
          (2, map2 (fun f g -> Formula.And (f, g)) (gen (n / 2)) (gen (n / 2)));
          (2, map2 (fun f g -> Formula.Or (f, g)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun f g -> Formula.Imp (f, g)) (gen (n / 2)) (gen (n / 2)));
          ( 1,
            map
              (fun f -> Formula.Exists (s2, Formula.And (takes s2 cv, f)))
              (gen (n - 1)) );
        ]
  in
  map
    (fun body ->
      { Stmt.rt_vars = [ sv; cv ]; rt_body = Formula.And (takes sv cv, body) })
    (gen 5)

(* Random university states over the 2x2 domain, so the active domain
   stays inside the evaluation domain's carriers (the equivalence
   invariant of compiled evaluation). *)
let random_univ_db_gen =
  let open QCheck.Gen in
  let course = oneofl [ v "cs101"; v "cs102" ] in
  let student = oneofl [ v "ana"; v "bob" ] in
  let* offered = list_size (int_range 0 3) course in
  let* takes = list_size (int_range 0 4) (pair student course) in
  return
    (Schema.empty_db schema
    |> Db.with_relation "OFFERED"
         (Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) offered))
    |> Db.with_relation "TAKES"
         (Relation.of_list [ "student"; "course" ]
            (List.map (fun (s, c) -> [ s; c ]) takes)))

let arbitrary_safe_rterm_and_db =
  QCheck.make
    ~print:(fun (rt, db) -> Fmt.str "%a @@ %a" Stmt.pp_rterm rt Db.pp db)
    QCheck.Gen.(pair random_safe_rterm_gen random_univ_db_gen)

let rel_arity r = List.length (Schema.sorts_of schema r)

(* Every safe body compiles (no naive fallback), and both the raw and
   the optimized plan agree with the naive oracle. *)
let prop_safe_bodies_compile =
  QCheck.Test.make ~name:"safe bodies always compile; compiled = naive" ~count:300
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      let consts = prop_consts in
      match Relalg.compile rt with
      | None -> false
      | Some e ->
        let naive = Relcalc.eval_rterm_naive ~domain ~consts db rt in
        Relation.equal (Relalg.eval ~domain ~consts db e) naive
        && Relation.equal
             (Relalg.eval ~domain ~consts db (Relalg.optimize ~rel_arity e))
             naive)

(* Closed wffs (the constraint-checking shape) compile to 0-ary plans
   whose emptiness test agrees with naive recursive evaluation. *)
let prop_wff_compiles =
  QCheck.Test.make ~name:"closed safe wffs compile; emptiness = holds" ~count:300
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      let consts = prop_consts in
      let check wff =
        match Relalg.compile_wff wff with
        | None -> false
        | Some e ->
          let plan_truth =
            not
              (Relation.is_empty
                 (Relalg.eval ~domain ~consts db (Relalg.optimize ~rel_arity e)))
          in
          plan_truth = Relcalc.holds ~domain ~consts db wff
      in
      check (Formula.exists rt.Stmt.rt_vars rt.Stmt.rt_body)
      && check (Formula.forall rt.Stmt.rt_vars (Formula.Not rt.Stmt.rt_body)))

(* Warm cache hits return the very same relation contents. *)
let prop_plan_cache_stable =
  QCheck.Test.make ~name:"plan cache returns identical relations on repeat" ~count:100
    arbitrary_safe_rterm_and_db (fun (rt, db) ->
      let consts = prop_consts in
      let first = Planner.eval_rterm ~strategy:`Compiled ~schema ~domain ~consts db rt in
      let hits1, _ = Planner.stats () in
      let second = Planner.eval_rterm ~strategy:`Compiled ~schema ~domain ~consts db rt in
      let hits2, _ = Planner.stats () in
      Relation.equal first second
      && hits2 > hits1
      && Planner.holds ~strategy:`Compiled ~schema ~domain ~consts db
           (Formula.exists rt.Stmt.rt_vars rt.Stmt.rt_body)
         = not (Relation.is_empty first))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_synthesized_agrees_on_random_traces;
        prop_equiv_reflexive_symmetric;
        prop_safe_bodies_compile;
        prop_wff_compiles;
        prop_plan_cache_stable;
      ]

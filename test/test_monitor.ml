(* Streaming temporal monitors: the incremental verdict over a random
   commit sequence equals the offline Kripke check on the replayed
   universe (QCheck); static, one-step and nested axioms fire at the
   right states; axioms a monitor cannot host are reported, never
   silently dropped; a monitor that lost sync with the commit stream
   resynchronizes instead of reporting nonsense; and in-sync commits
   advance the planner's materializations instead of rebuilding. *)

open Fdbs_kernel
open Fdbs_temporal
open Fdbs_rpr

let v s = Value.Sym s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0
let courses = [ v "cs101"; v "cs102" ]
let students = [ v "ana"; v "bob" ]

let domain = Domain.of_list [ ("course", courses); ("student", students) ]

(* Relations deliberately share the theory's predicate names (the
   canonical correspondence is case-insensitive; the cram test covers
   the uppercase convention). *)
let schema : Schema.t =
  {
    Schema.name = "tmon";
    relations =
      [
        Schema.rel_decl "offered" [ "course" ];
        Schema.rel_decl "takes" [ "student"; "course" ];
      ];
    consts = [];
    constraints = [];
    procs = [];
  }

let theory_src =
  {|
theory tmon
sort course
sort student
pred offered : course
pred takes : student, course
axiom ghost: ~(exists s:student, c:course. takes(s, c) & ~offered(c))
axiom keep: forall c:course. (offered(c) -> box offered(c))
axiom keep2: forall c:course. (offered(c) -> box box offered(c))
|}

let theory = Tparser.theory_exn theory_src

let compile_exn () =
  match Monitor.compile ~schema theory with
  | Ok m -> m
  | Error e -> Alcotest.failf "monitor compile failed: %a" Error.pp e

let db_of (offered : Value.t list) (takes : (Value.t * Value.t) list) : Db.t =
  Db.empty
  |> Db.with_relation "offered"
       (Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) offered))
  |> Db.with_relation "takes"
       (Relation.of_list [ "student"; "course" ]
          (List.map (fun (s, c) -> [ s; c ]) takes))

(* ------------------------------------------------------------------ *)
(* Directed verdicts                                                   *)
(* ------------------------------------------------------------------ *)

let test_static_fires () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* enroll into an unoffered course: the static axiom fails at the
     post-commit state (state 1) *)
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs102") ] in
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  match List.filter (fun e -> e.Monitor.ev_axiom = "ghost") events with
  | [ e ] ->
    Alcotest.(check int) "state" 1 e.Monitor.ev_state;
    Alcotest.(check bool) "kind" true (e.Monitor.ev_kind = Tformula.Static)
  | es -> Alcotest.failf "expected one ghost event, got %d" (List.length es)

let test_transition_fires_about_pre_state () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* retracting cs101 violates keep (□ offered) — about state 0 *)
  let s1 = db_of [] [] in
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  (match List.filter (fun e -> e.Monitor.ev_axiom = "keep") events with
  | [ e ] -> Alcotest.(check int) "state" 0 e.Monitor.ev_state
  | es -> Alcotest.failf "expected one keep event, got %d" (List.length es));
  (* the nested keep2 verdict about state 0 needs one more commit *)
  Alcotest.(check bool)
    "keep2 not yet decidable" true
    (not (List.exists (fun e -> e.Monitor.ev_axiom = "keep2") events));
  let events = Monitor.advance m ~domain ~before:s1 ~after:s1 in
  match List.filter (fun e -> e.Monitor.ev_axiom = "keep2") events with
  | [ e ] -> Alcotest.(check int) "keep2 state" 0 e.Monitor.ev_state
  | es -> Alcotest.failf "expected one keep2 event, got %d" (List.length es)

let test_clean_history_is_quiet () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  let s2 = db_of [ v "cs101"; v "cs102" ] [ (v "ana", v "cs101") ] in
  let e1 = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  let e2 = Monitor.advance m ~domain ~before:s1 ~after:s2 in
  Alcotest.(check int) "no events" 0 (List.length e1 + List.length e2);
  Alcotest.(check int) "commits" 2 (Monitor.commits m)

let test_unpublished_check_has_no_effect () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [] [] in
  (* a rolled-back commit: check but never publish *)
  let events, _publish = Monitor.check m ~domain ~before:s0 ~after:s1 in
  Alcotest.(check bool) "would fire" true (events <> []);
  Alcotest.(check int) "not advanced" 0 (Monitor.commits m);
  Alcotest.(check int) "not counted" 0 (Monitor.violations m);
  (* the same commit done for real still fires *)
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  Alcotest.(check bool) "fires" true (events <> [])

let test_resync_after_missed_commit () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  (* a commit the monitor never saw *)
  let s1 = db_of [ v "cs101"; v "cs102" ] [] in
  let s2 = db_of [ v "cs101"; v "cs102" ] [ (v "bob", v "cs102") ] in
  let events = Monitor.advance m ~domain ~before:s1 ~after:s2 in
  Alcotest.(check int) "clean transition" 0 (List.length events)

(* The resync must rebuild against the unseen commit's own pre-state:
   the monitor's previous two-state database is warm in the planner's
   table, and advancing it by an empty delta would re-report the old
   (clean) verdict. *)
let test_resync_after_warm_commit () =
  let m = compile_exn () in
  let s0 = db_of [ v "cs101" ] [] in
  Monitor.attach m s0;
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  let events = Monitor.advance m ~domain ~before:s0 ~after:s1 in
  Alcotest.(check int) "clean commit" 0 (List.length events);
  (* a commit the monitor never saw, enrolling into an unoffered course *)
  let s2 = db_of [ v "cs101" ] [] in
  let s3 = db_of [ v "cs101" ] [ (v "bob", v "cs102") ] in
  let events = Monitor.advance m ~domain ~before:s2 ~after:s3 in
  Alcotest.(check (list (pair string int)))
    "ghost fires at the resynced state" [ ("ghost", 1) ]
    (List.map (fun e -> (e.Monitor.ev_axiom, e.Monitor.ev_state)) events)

(* Depth ≤ 1 verdicts are maintained in the planner's materialization
   table: the first commit materializes each compiled axiom (a miss),
   every later in-sync commit advances it (a hit). *)
let test_monitors_are_incremental () =
  Planner.clear ();
  let m = compile_exn () in
  let shallow =
    List.length
      (List.filter
         (fun (c : Monitor.compiled) -> c.Monitor.m_depth <= 1 && c.Monitor.m_compiled)
         (Monitor.monitors m))
  in
  Alcotest.(check int) "compiled depth <= 1 axioms" 2 shallow;
  let s0 = db_of [ v "cs101" ] [] in
  let s1 = db_of [ v "cs101" ] [ (v "ana", v "cs101") ] in
  let s2 = db_of [ v "cs101"; v "cs102" ] [ (v "ana", v "cs101") ] in
  let s3 = db_of [ v "cs101"; v "cs102" ] [ (v "bob", v "cs102") ] in
  Monitor.attach m s0;
  let counts = Alcotest.(triple int int int) in
  ignore (Monitor.advance m ~domain ~before:s0 ~after:s1);
  Alcotest.(check counts) "(hit, fallback, miss) after the first commit"
    (0, 0, shallow) (Planner.delta_stats ());
  ignore (Monitor.advance m ~domain ~before:s1 ~after:s2);
  ignore (Monitor.advance m ~domain ~before:s2 ~after:s3);
  Alcotest.(check counts) "(hit, fallback, miss) after two in-sync commits"
    (2 * shallow, 0, shallow) (Planner.delta_stats ())

let test_skipped_axioms_reported () =
  let src =
    {|
theory part
sort course
pred offered : course
shared special : course
axiom static_ok: ~(exists c:course. offered(c) & ~offered(c))
axiom uses_shared: ~(exists c:course. special(c) & ~offered(c))
|}
  in
  let theory = Tparser.theory_exn src in
  let schema : Schema.t =
    {
      Schema.name = "part";
      relations = [ Schema.rel_decl "offered" [ "course" ] ];
      consts = [];
      constraints = [];
      procs = [];
    }
  in
  match Monitor.compile ~schema theory with
  | Error e -> Alcotest.failf "compile failed: %a" Error.pp e
  | Ok m ->
    Alcotest.(check int) "monitored" 1 (List.length (Monitor.monitors m));
    (match Monitor.skipped m with
    | [ (name, reason) ] ->
      Alcotest.(check string) "skipped axiom" "uses_shared" name;
      Alcotest.(check bool)
        "reason mentions the predicate" true
        (contains ~sub:"special" reason)
    | sk -> Alcotest.failf "expected one skipped axiom, got %d" (List.length sk))

let test_missing_relation_is_an_error () =
  let src = {|
theory bad
sort course
pred nowhere : course
axiom a: ~(exists c:course. nowhere(c))
|} in
  let theory = Tparser.theory_exn src in
  match Monitor.compile ~schema theory with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e ->
    Alcotest.(check bool)
      "names the predicate" true
      (contains ~sub:"nowhere" e.Error.message)

let test_static_projections_report_skips () =
  let axioms =
    List.map (fun ax -> (ax.Ttheory.ax_name, ax.Ttheory.ax_formula)) theory.Ttheory.axioms
  in
  let statics, skipped = Check.static_projections axioms in
  Alcotest.(check (list string)) "statics" [ "ghost" ] (List.map fst statics);
  Alcotest.(check (list string)) "skipped" [ "keep"; "keep2" ] skipped

(* ------------------------------------------------------------------ *)
(* Carried column indexes: warm monitored commits build none           *)
(* ------------------------------------------------------------------ *)

(* The guarded schema: a retract guarded by a read of TAKES by course,
   under a constraint that, like both axioms below, is an antijoin
   against OFFERED. *)
let guarded_src =
  {|
schema guarded
relation OFFERED(course)
relation TAKES(student, course)
constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))
proc offer(c: course) = insert OFFERED(c)
proc retract(c: course) =
  if (~(exists s:student. TAKES(s, c))) then delete OFFERED(c)
end-schema
|}

let guarded_theory_src =
  {|
theory guarded
sort course
sort student
pred offered : course
pred takes : student, course
axiom takes_offered: forall s:student, c:course. (takes(s, c) -> offered(c))
axiom no_retract: forall c:course. (offered(c) -> box offered(c))
|}

let col_index_builds = Metrics.counter "relation.col_index_builds"

(* Offering and retracting a course nobody takes changes OFFERED under
   every antijoin, whose delta rules then look TAKES up by course. The
   materializations patch their outputs, which carries the column
   indexes the warm-up built, so neither the commits nor the reads
   between them build another. *)
let test_warm_commits_build_no_index () =
  Planner.clear ();
  let schema = Rparser.schema_exn guarded_src in
  let cs = List.init 8 (fun i -> v (Fmt.str "c%d" i)) and spare = v "spare" in
  let students = List.init 2000 (fun i -> v (Fmt.str "s%d" i)) in
  let domain =
    Domain.of_list [ ("course", spare :: cs); ("student", students) ]
  in
  let db =
    Schema.empty_db schema
    |> Db.with_relation "OFFERED"
         (Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) cs))
    |> Db.with_relation "TAKES"
         (Relation.of_list [ "student"; "course" ]
            (List.mapi (fun i s -> [ s; List.nth cs (i mod 8) ]) students))
  in
  let m =
    match Monitor.compile ~schema (Tparser.theory_exn guarded_theory_src) with
    | Ok m -> m
    | Error e -> Alcotest.failf "monitor compile failed: %a" Error.pp e
  in
  Monitor.attach m db;
  let on_commit ~before ~after =
    Ok (snd (Monitor.check m ~domain ~before ~after))
  in
  let txn = Txn.make ~on_commit (Semantics.env ~domain schema) in
  let taken =
    Rparser.wff_exn ~params:[ ("c", "course") ] schema
      "exists s:student. TAKES(s, c)"
  in
  let state = ref db in
  let round i =
    let call = ((if i mod 2 = 0 then "offer" else "retract"), [ spare ]) in
    (match Txn.run txn [ call ] !state with
    | Ok db' -> state := db'
    | Error rb -> Alcotest.failf "commit rolled back: %a" Txn.pp_rollback rb);
    List.iter
      (fun c ->
        ignore
          (Planner.holds ~schema ~domain ~consts:[ ("c", c) ] !state taken
            : bool))
      [ spare; List.nth cs (i mod 8) ]
  in
  for i = 0 to 3 do
    round i
  done;
  let before = Metrics.value col_index_builds in
  for i = 4 to 23 do
    round i
  done;
  Alcotest.(check int)
    "column indexes built by 20 warm commits and their reads" 0
    (Metrics.value col_index_builds - before);
  Alcotest.(check int) "one no_retract event per retract" 12 (Monitor.violations m)

(* ------------------------------------------------------------------ *)
(* QCheck: incremental verdicts = offline Check.check_axioms           *)
(* ------------------------------------------------------------------ *)

(* A random history: start empty, each commit flips one tuple. *)
type flip = Offer of Value.t | Retract of Value.t | Enroll of Value.t * Value.t | Leave of Value.t * Value.t

let apply_flip db = function
  | Offer c -> Db.with_relation "offered" (Relation.add [ c ] (Db.relation_exn db "offered")) db
  | Retract c ->
    Db.with_relation "offered" (Relation.remove [ c ] (Db.relation_exn db "offered")) db
  | Enroll (s, c) ->
    Db.with_relation "takes" (Relation.add [ s; c ] (Db.relation_exn db "takes")) db
  | Leave (s, c) ->
    Db.with_relation "takes" (Relation.remove [ s; c ] (Db.relation_exn db "takes")) db

let flip_gen =
  let open QCheck.Gen in
  let course = oneofl courses and student = oneofl students in
  oneof
    [
      map (fun c -> Offer c) course;
      map (fun c -> Retract c) course;
      map2 (fun s c -> Enroll (s, c)) student course;
      map2 (fun s c -> Leave (s, c)) student course;
    ]

let history_gen = QCheck.Gen.(list_size (int_range 1 12) flip_gen)

let pp_flip ppf = function
  | Offer c -> Fmt.pf ppf "offer %a" Value.pp c
  | Retract c -> Fmt.pf ppf "retract %a" Value.pp c
  | Enroll (s, c) -> Fmt.pf ppf "enroll %a %a" Value.pp s Value.pp c
  | Leave (s, c) -> Fmt.pf ppf "leave %a %a" Value.pp s Value.pp c

let arbitrary_history =
  QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_flip)) history_gen

(* Offline: replay the same states into a one-step universe and check
   every axiom everywhere. The monitor can only speak about states
   whose successor window it has seen, so restrict the offline failure
   sets accordingly: a static axiom is monitored at states 1..n (state
   0 predates the stream), an axiom of modal depth d at states
   0..n-d. *)
let offline_failures (states : Db.t list) =
  let structures = List.map (fun db -> Relcalc.structure_of_db ~domain db) states in
  let n = List.length states - 1 in
  let u =
    Universe.make ~states:structures
      ~edges:(List.init n (fun i -> (i, i + 1)))
  in
  let axioms =
    List.map (fun ax -> (ax.Ttheory.ax_name, ax.Ttheory.ax_formula)) theory.Ttheory.axioms
  in
  List.map
    (fun (r : Check.report) ->
      let depth =
        Tformula.modal_depth
          (List.assoc r.Check.axiom axioms)
      in
      let keep i = if depth = 0 then i >= 1 else i <= n - depth in
      (r.Check.axiom, List.filter keep r.Check.failures))
    (Check.check_axioms u axioms)

(* One monitor per history, all of the same theory, their commits
   interleaved round-robin: they share the planner's materialization
   table, which must never serve one monitor's state to another. *)
let monitor_failures (histories : Db.t list list) =
  let runs =
    List.map
      (fun states ->
        let m = compile_exn () in
        Monitor.attach m (List.hd states);
        (m, ref states, ref []))
      histories
  in
  let step (m, rest, events) =
    match !rest with
    | before :: (after :: _ as tl) ->
      events := !events @ Monitor.advance m ~domain ~before ~after;
      rest := tl;
      true
    | _ -> false
  in
  let rec loop () = if List.fold_left (fun acc r -> step r || acc) false runs then loop () in
  loop ();
  List.map
    (fun (_, _, events) ->
      List.map
        (fun ax ->
          ( ax.Ttheory.ax_name,
            List.filter_map
              (fun (e : Monitor.event) ->
                if e.Monitor.ev_axiom = ax.Ttheory.ax_name then Some e.Monitor.ev_state
                else None)
              !events
            |> List.sort_uniq compare ))
        theory.Ttheory.axioms)
    runs

let states_of flips =
  List.rev
    (List.fold_left (fun acc f -> apply_flip (List.hd acc) f :: acc) [ db_of [] [] ] flips)

let prop_incremental_equals_offline =
  QCheck.Test.make ~name:"incremental monitor = offline Check.check_axioms"
    ~count:200 (QCheck.pair arbitrary_history arbitrary_history) (fun (fa, fb) ->
      let histories = [ states_of fa; states_of fb ] in
      List.for_all2
        (fun states inc ->
          List.for_all
            (fun (name, fails) -> List.sort_uniq compare fails = List.assoc name inc)
            (offline_failures states))
        histories (monitor_failures histories))

let suite =
  [
    Alcotest.test_case "static axiom fires about the post state" `Quick test_static_fires;
    Alcotest.test_case "transition axiom fires about the pre state" `Quick
      test_transition_fires_about_pre_state;
    Alcotest.test_case "clean history is quiet" `Quick test_clean_history_is_quiet;
    Alcotest.test_case "unpublished check has no effect" `Quick
      test_unpublished_check_has_no_effect;
    Alcotest.test_case "resync after a missed commit" `Quick test_resync_after_missed_commit;
    Alcotest.test_case "resync after a warm commit" `Quick test_resync_after_warm_commit;
    Alcotest.test_case "monitors advance through planner delta rules" `Quick
      test_monitors_are_incremental;
    Alcotest.test_case "non-monitorable axioms are reported" `Quick
      test_skipped_axioms_reported;
    Alcotest.test_case "missing homonym relation is an error" `Quick
      test_missing_relation_is_an_error;
    Alcotest.test_case "static_projections report skipped modals" `Quick
      test_static_projections_report_skips;
    Alcotest.test_case "warm monitored commits build no column index" `Quick
      test_warm_commits_build_no_index;
    QCheck_alcotest.to_alcotest prop_incremental_equals_offline;
  ]

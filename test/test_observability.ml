(* The observability layer and the three correctness fixes riding with
   it: the planner cache's structural slot comparison under forced key
   collisions, the monotonic budget clock, torn-journal recovery, and
   the determinism contract of tracing and metrics across Pool
   domains. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_rpr

let v s = Value.Sym s
let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Planner cache: collisions must re-plan, never cross-serve           *)
(* ------------------------------------------------------------------ *)

(* Two relations over one sort, R inhabited and S empty, so a plan for
   "exists x. R(x)" answers true and a plan for "exists x. S(x)" answers
   false — if a hash collision ever cross-serves one for the other the
   truth value flips. *)
let obs_src =
  {|
schema obs

relation R(thing)
relation S(thing)

proc initiate() =
  (R := {(t:thing) | false} ; S := {(t:thing) | false})

end-schema
|}

let obs_schema = Rparser.schema_exn obs_src
let obs_domain = Domain.of_list [ ("thing", [ v "a"; v "b" ]) ]

let obs_db =
  Schema.empty_db obs_schema
  |> Db.with_relation "R" (Relation.of_list [ "thing" ] [ [ v "a" ] ])

let exists_in rel =
  let x = { Term.vname = "x"; vsort = "thing" } in
  Formula.Exists (x, Formula.Pred (rel, [ Term.Var x ]))

(* With every cache key masked to 0, the two formulas land in the same
   bucket. The structural slot comparison must detect the mismatch and
   re-plan; before the fix the bucket served R's compiled plan for the
   S query, answering true for an empty relation. *)
let test_collision_does_not_cross_serve () =
  Planner.clear ();
  Planner.set_key_mask (Some 0);
  Fun.protect
    ~finally:(fun () ->
      Planner.set_key_mask None;
      Planner.clear ())
    (fun () ->
      let holds f =
        Planner.holds ~strategy:`Compiled ~schema:obs_schema ~domain:obs_domain
          obs_db f
      in
      checkb "R is inhabited" true (holds (exists_in "R"));
      checkb "S stays empty despite the colliding key" false
        (holds (exists_in "S"));
      let _, misses = Planner.stats () in
      check Alcotest.int "each formula planned separately" 2 misses)

(* The slot must also compare the schema: the same formula under two
   different schemas is two distinct plans even when their keys
   collide. *)
let test_collision_distinguishes_schemas () =
  let obs2_schema =
    Rparser.schema_exn
      (Str_replace.replace obs_src "schema obs" "schema obs2")
  in
  Planner.clear ();
  Planner.set_key_mask (Some 0);
  Fun.protect
    ~finally:(fun () ->
      Planner.set_key_mask None;
      Planner.clear ())
    (fun () ->
      ignore (Planner.plan_wff obs_schema (exists_in "R"));
      ignore (Planner.plan_wff obs2_schema (exists_in "R"));
      let hits, misses = Planner.stats () in
      check Alcotest.int "no cross-schema hit" 0 hits;
      check Alcotest.int "planned once per schema" 2 misses)

(* A copy made with [{ sc with relations = ... }] after the original
   has been fingerprinted and planned — the monitor schema's
   construction — gets its own fingerprint and is never served the
   original's plan, even when every key collides. A structurally equal
   copy of it still hits, since tenants with the same schema share
   plans. *)
let test_schema_copy_replans () =
  let acc = Schema.rel_decl "ACC" [ "thing" ] in
  let widen (sc : Schema.t) =
    { sc with Schema.relations = sc.Schema.relations @ [ acc ] }
  in
  let fp = Schema.fingerprint in
  let original = fp obs_schema in
  let copy = widen obs_schema in
  let twin = widen obs_schema in
  checkb "the copy gets its own fingerprint" true (fp copy <> original);
  checkb "an equal copy hashes alike" true (fp copy = fp twin);
  checkb "the original keeps its fingerprint" true (fp obs_schema = original);
  let stats = Alcotest.(pair int int) in
  Planner.clear ();
  Planner.set_key_mask (Some 0);
  Fun.protect
    ~finally:(fun () ->
      Planner.set_key_mask None;
      Planner.clear ())
    (fun () ->
      ignore (Planner.plan_wff obs_schema (exists_in "R"));
      ignore (Planner.plan_wff copy (exists_in "R"));
      check stats "the copy re-plans" (0, 2) (Planner.stats ());
      ignore (Planner.plan_wff twin (exists_in "R"));
      check stats "an equal copy hits" (1, 2) (Planner.stats ()))

(* ------------------------------------------------------------------ *)
(* Budget: the default clock is monotonic                              *)
(* ------------------------------------------------------------------ *)

(* Before the fix the default clock was the wall clock
   (gettimeofday-based), ~1.7e9 seconds since the epoch; the monotonic
   clock counts from boot, so the two differ by years. Reading both
   back-to-back pins the default to the monotonic source. *)
let test_default_clock_is_monotonic () =
  let d = Budget.default_clock () in
  let m = Mclock.now () in
  checkb "default_clock reads the monotonic clock" true
    (Float.abs (m -. d) < 1.0);
  let d' = Budget.default_clock () in
  checkb "default_clock never goes backwards" true (d' >= d)

(* The [?clock] injection point survives the fix: a deadline measured
   against a fake clock fires exactly when that clock passes it. *)
let test_injectable_clock_still_drives_deadlines () =
  let now = ref 0. in
  let b = Budget.make ~ms:10 ~clock:(fun () -> !now) () in
  Budget.check_time b;
  now := 0.005;
  Budget.check_time b;
  now := 0.050;
  match Budget.check_time b with
  | () -> Alcotest.fail "deadline did not fire"
  | exception Budget.Exhausted Budget.Time -> ()

(* ------------------------------------------------------------------ *)
(* Journal: torn tails are tolerated, mid-file corruption is not       *)
(* ------------------------------------------------------------------ *)

let with_journal_content content f =
  let path = Filename.temp_file "fdbs_obs" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc;
      f path)

let load_exn path =
  match Journal.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "journal load: %s" (Error.to_string e)

let contains s sub =
  let sl = String.length s and nl = String.length sub in
  let rec go i = i + nl <= sl && (String.sub s i nl = sub || go (i + 1)) in
  nl = 0 || go 0

let torn_mentions what = function
  | Some msg ->
    checkb (Fmt.str "torn tail mentions %S" what) true (contains msg what)
  | None -> Alcotest.failf "expected a torn tail mentioning %S" what

let test_uncommitted_tail_dropped () =
  with_journal_content
    "call offer cs101\ncommit\ncall offer cs102\ncall enroll ana cs102\n"
    (fun path ->
      let entries, torn = load_exn path in
      check Alcotest.int "only the committed entry survives" 1
        (List.length entries);
      torn_mentions "uncommitted" torn)

let test_truncated_final_line_dropped () =
  with_journal_content "call offer cs101\ncommit\ncall offer cs1" (fun path ->
      let entries, torn = load_exn path in
      check Alcotest.int "only the committed entry survives" 1
        (List.length entries);
      torn_mentions "torn final record" torn)

let test_malformed_final_line_dropped () =
  with_journal_content "call offer cs101\ncommit\ngarbage here\n" (fun path ->
      let entries, torn = load_exn path in
      check Alcotest.int "only the committed entry survives" 1
        (List.length entries);
      torn_mentions "malformed trailing" torn)

let test_malformed_mid_file_is_corruption () =
  with_journal_content "call offer cs101\ngarbage here\ncommit\n" (fun path ->
      match Journal.load path with
      | Ok _ -> Alcotest.fail "mid-file corruption must not load"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Trace: span trees are identical for any --jobs N                    *)
(* ------------------------------------------------------------------ *)

(* A workload with per-item spans under one root, run through Pool so
   worker domains record into isolated collectors that Pool grafts back
   in chunk order. The rendered structure (names, attributes, nesting —
   no timings) must not depend on the jobs count. *)
let traced_structure ~jobs n =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      ignore
        (Trace.with_span ~cat:"test" "root" (fun () ->
             Pool.map ~jobs
               (fun i ->
                 Trace.with_span ~cat:"test"
                   ~args:[ ("i", string_of_int i) ]
                   "item"
                   (fun () ->
                     if i mod 3 = 0 then
                       Trace.with_span ~cat:"test" "item.nested" (fun () -> i)
                     else i))
               (List.init n Fun.id)));
      Trace.structure ())

let test_span_tree_jobs_invariant () =
  let reference = traced_structure ~jobs:1 17 in
  checkb "sequential run recorded spans" true (reference <> "");
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Fmt.str "span tree ~jobs:%d = ~jobs:1" jobs)
        reference
        (traced_structure ~jobs 17))
    [ 2; 4; 8 ]

let prop_span_tree_jobs_invariant =
  QCheck.Test.make ~name:"span tree is identical for any jobs count"
    ~count:50
    QCheck.(pair (int_range 0 40) (int_range 1 8))
    (fun (n, jobs) -> traced_structure ~jobs n = traced_structure ~jobs:1 n)

(* Chrome output in virtual-timestamp mode is byte-identical across
   jobs counts — the property `fds verify --trace` relies on. *)
let test_chrome_trace_bytes_jobs_invariant () =
  let chrome ~jobs =
    let file = Filename.temp_file "fdbs_obs" ".trace.json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Trace.reset ();
        Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Trace.set_enabled false;
            Trace.reset ())
          (fun () ->
            ignore
              (Trace.with_span ~cat:"test" "root" (fun () ->
                   Pool.map ~jobs
                     (fun i ->
                       Trace.with_span ~cat:"test" "item" (fun () -> i))
                     (List.init 12 Fun.id))));
        ignore (Trace.write_chrome ~virtual_ts:true file);
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  in
  check Alcotest.string "virtual-ts Chrome trace bytes ~jobs:4 = ~jobs:1"
    (chrome ~jobs:1) (chrome ~jobs:4)

(* The root ring is bounded: a runaway trace drops oldest roots instead
   of growing without limit. *)
let test_root_ring_bounded () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      for i = 1 to 400 do
        Trace.with_span "burst" (fun () -> ignore i)
      done;
      checkb "roots stay bounded" true (List.length (Trace.roots ()) <= 256);
      let _, dropped = Trace.stats () in
      checkb "overflow is counted as dropped" true (dropped > 0))

(* ------------------------------------------------------------------ *)
(* Metrics: counters are exact across domains                          *)
(* ------------------------------------------------------------------ *)

(* Mirrors the Budget step-exactness test: 8 items each incrementing 25
   times must land exactly 200 on the counter for every jobs count. *)
let test_counters_exact_across_domains () =
  let c = Metrics.counter "test.obs.events" in
  List.iter
    (fun jobs ->
      let before = Metrics.value c in
      ignore
        (Pool.map ~jobs
           (fun _ ->
             for _k = 1 to 25 do
               Metrics.incr c
             done)
           (List.init 8 Fun.id));
      check Alcotest.int
        (Fmt.str "exactly 200 increments with ~jobs:%d" jobs)
        (before + 200) (Metrics.value c))
    [ 1; 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "colliding cache keys re-plan" `Quick
      test_collision_does_not_cross_serve;
    Alcotest.test_case "colliding keys distinguish schemas" `Quick
      test_collision_distinguishes_schemas;
    Alcotest.test_case "a schema copy never shares a plan" `Quick
      test_schema_copy_replans;
    Alcotest.test_case "default budget clock is monotonic" `Quick
      test_default_clock_is_monotonic;
    Alcotest.test_case "injected clock drives deadlines" `Quick
      test_injectable_clock_still_drives_deadlines;
    Alcotest.test_case "uncommitted journal tail dropped" `Quick
      test_uncommitted_tail_dropped;
    Alcotest.test_case "truncated final journal line dropped" `Quick
      test_truncated_final_line_dropped;
    Alcotest.test_case "malformed final journal line dropped" `Quick
      test_malformed_final_line_dropped;
    Alcotest.test_case "malformed mid-journal line is corruption" `Quick
      test_malformed_mid_file_is_corruption;
    Alcotest.test_case "span tree invariant under jobs" `Quick
      test_span_tree_jobs_invariant;
    Alcotest.test_case "virtual-ts Chrome trace byte-identical" `Quick
      test_chrome_trace_bytes_jobs_invariant;
    Alcotest.test_case "trace root ring is bounded" `Quick
      test_root_ring_bounded;
    Alcotest.test_case "metrics counters exact across domains" `Quick
      test_counters_exact_across_domains;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_span_tree_jobs_invariant ]

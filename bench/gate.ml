(* The CI performance gate: compare a fresh `main.exe --json` report
   against the committed baseline and fail on regressions.

   Every metric is normalized by its report's [calibration_ns] — the
   cost of a fixed pure-OCaml loop measured on the same machine in the
   same run — so the comparison is a ratio of ratios and survives
   running the baseline and the candidate on different hardware. A
   metric regresses when

     (cur_ns / cur_calibration) > (base_ns / base_calibration) * (1 + threshold)

   Derived metrics (speedup ratios) are gated where they are
   meaningful, reported as info otherwise:

   - [trace_disabled_overhead], the cost of a disabled tracing span
     relative to one semantics statement, fails above
     --trace-overhead-max (default 0.02: tracing off must stay within
     2%). Machine-free, always gated.
   - [session_warm_speedup], a warm service session relative to paying
     full session setup per request, fails below --session-speedup-min
     (default 5: the daemon must beat one-shot clients by that margin).
     Machine-free, always gated.
   - [constraint_delta_speedup], a warm differential commit relative to
     from-scratch constraint re-evaluation, fails below
     --delta-speedup-min (default 0: disabled; CI passes 5 — the
     differential layer must beat re-running every compiled plan by
     that margin). Machine-free, gated whenever the minimum is > 0.
   - [monitor_commit_overhead], a transactional commit with streaming
     temporal monitors attached relative to the same commit without
     them, fails above --monitor-overhead-max (default 0: disabled; CI
     passes 3 — monitoring a two-axiom theory must stay within 3x the
     bare commit). Machine-free, gated whenever the maximum is > 0.
   - [commit_alloc_ratio], the minor-heap words one differential
     commit allocates at n = 8k over the same at n = 2k, fails above
     --commit-alloc-ratio-max, and [active_domain_alloc_ratio], the
     same ratio for [Db.active_domain] over the store, fails above
     --active-domain-alloc-ratio-max (both default 0: disabled; CI
     passes 1.5 and 6). Word counts are exact, so these size-sweep
     gates are machine-free and noise-free.
   - [gateway_rps], aggregate pipelined requests/second through the
     socket gateway, fails below --rps-min (default 0: disabled; CI
     passes 200). The floor is absolute, not machine-relative — it is
     set far below any real machine and exists to catch a hung or
     serialized gateway, so it is safe to gate on shared runners.
   - [check23_speedup_jobs4] (and, as a no-regression floor,
     [check23_speedup_jobs2]) gate real multicore scaling: jobs4 fails
     below --check23-speedup-min (default 1.5) and jobs2 below 1.0.
     These depend on physical parallelism, so they are gated only when
     the current report's [cores] field is >= 4 — below that the gate
     prints an explicit skip line and passes (pass 0 to disable
     entirely).

   Exit status: 0 when every baseline metric passes, 1 on any
   regression or a metric missing from the current report, 2 on
   usage/parse errors. *)

module Json = Fdbs_kernel.Json

let field = Json.field

let num_exn what = function
  | Some (Json.Num f) -> f
  | _ -> raise (Json.Parse_error (what ^ ": missing or non-numeric"))

let metrics_exn report =
  match field "metrics" report with
  | Some (Json.Obj kvs) ->
    List.filter_map (function k, Json.Num f -> Some (k, f) | _ -> None) kvs
  | _ -> raise (Json.Parse_error "metrics: missing or not an object")

let () =
  let baseline = ref "" in
  let current = ref "" in
  let threshold = ref 0.25 in
  let overhead_max = ref 0.02 in
  let session_min = ref 5.0 in
  let speedup_min = ref 1.5 in
  let delta_min = ref 0.0 in
  let rps_min = ref 0.0 in
  let monitor_max = ref 0.0 in
  let commit_alloc_max = ref 0.0 in
  let domain_alloc_max = ref 0.0 in
  let usage =
    "gate --baseline FILE --current FILE [--threshold F] [--trace-overhead-max F] \
     [--session-speedup-min F] [--check23-speedup-min F] [--delta-speedup-min F] \
     [--rps-min F] [--monitor-overhead-max F] [--commit-alloc-ratio-max F] \
     [--active-domain-alloc-ratio-max F]"
  in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE committed baseline report");
      ("--current", Arg.Set_string current, "FILE freshly measured report");
      ( "--threshold",
        Arg.Set_float threshold,
        "F allowed relative regression (default 0.25)" );
      ( "--trace-overhead-max",
        Arg.Set_float overhead_max,
        "F allowed disabled-tracing overhead per statement (default 0.02)" );
      ( "--session-speedup-min",
        Arg.Set_float session_min,
        "F required warm-session speedup over per-request setup (default 5)" );
      ( "--check23-speedup-min",
        Arg.Set_float speedup_min,
        "F required Check23 speedup at 4 domains on a >=4-core runner \
         (default 1.5; 0 disables)" );
      ( "--delta-speedup-min",
        Arg.Set_float delta_min,
        "F required differential-commit speedup over from-scratch constraint \
         re-evaluation (default 0: disabled; CI passes 5)" );
      ( "--rps-min",
        Arg.Set_float rps_min,
        "F required gateway requests/second, an absolute floor \
         (default 0: disabled; CI passes 200)" );
      ( "--monitor-overhead-max",
        Arg.Set_float monitor_max,
        "F allowed monitored-commit cost relative to a bare commit \
         (default 0: disabled; CI passes 3)" );
      ( "--commit-alloc-ratio-max",
        Arg.Set_float commit_alloc_max,
        "F allowed growth of one commit's allocation from n = 2k to 8k \
         (default 0: disabled; CI passes 1.5)" );
      ( "--active-domain-alloc-ratio-max",
        Arg.Set_float domain_alloc_max,
        "F allowed growth of the active domain's allocation from n = 2k to \
         8k (default 0: disabled; CI passes 6)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !baseline = "" || !current = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match (Json.parse_file !baseline, Json.parse_file !current) with
  | exception Json.Parse_error e ->
    Printf.eprintf "gate: %s\n" e;
    exit 2
  | exception Sys_error e ->
    Printf.eprintf "gate: %s\n" e;
    exit 2
  | base, cur ->
    let base_cal = num_exn "baseline calibration_ns" (field "calibration_ns" base) in
    let cur_cal = num_exn "current calibration_ns" (field "calibration_ns" cur) in
    let cur_metrics = metrics_exn cur in
    let failures = ref 0 in
    Printf.printf "perf gate: threshold %+.0f%%, calibration %.0f -> %.0f ns\n"
      (100. *. !threshold) base_cal cur_cal;
    List.iter
      (fun (name, base_ns) ->
        match List.assoc_opt name cur_metrics with
        | None ->
          incr failures;
          Printf.printf "  FAIL %-24s missing from the current report\n" name
        | Some cur_ns ->
          let base_ratio = base_ns /. base_cal in
          let cur_ratio = cur_ns /. cur_cal in
          let change = (cur_ratio /. base_ratio) -. 1. in
          let ok = change <= !threshold in
          if not ok then incr failures;
          Printf.printf "  %s %-24s %10.0f ns -> %10.0f ns  normalized %+6.1f%%\n"
            (if ok then "ok  " else "FAIL")
            name base_ns cur_ns (100. *. change))
      (metrics_exn base);
    (* the speedup gate needs physical parallelism: read the core count
       the current report recorded on its own runner *)
    let cores =
      match field "cores" cur with Some (Json.Num f) -> int_of_float f | _ -> 1
    in
    let gate_speedups = !speedup_min > 0. && cores >= 4 in
    let skip_speedup name f =
      if !speedup_min <= 0. then
        Printf.printf "  skip %-24s %.2fx (gate disabled: --check23-speedup-min 0)\n"
          name f
      else
        Printf.printf
          "  skip %-24s %.2fx (gate skipped: runner has %d core(s), needs >= 4)\n"
          name f cores
    in
    (* a ratio gated from above when its maximum is > 0 *)
    let gate_max name f max flag what =
      if max > 0. then begin
        let ok = f <= max in
        if not ok then incr failures;
        Printf.printf "  %s %-24s %.2fx (max %.2fx: %s)\n"
          (if ok then "ok  " else "FAIL")
          name f max what
      end
      else Printf.printf "  skip %-24s %.2fx (gate disabled: %s 0)\n" name f flag
    in
    (match field "derived" cur with
     | Some (Json.Obj kvs) ->
       List.iter
         (function
           | "check23_speedup_jobs4", Json.Num f ->
             if gate_speedups then begin
               let ok = f >= !speedup_min in
               if not ok then incr failures;
               Printf.printf
                 "  %s %-24s %.2fx (min %.2fx: Check23 at 4 domains must scale)\n"
                 (if ok then "ok  " else "FAIL")
                 "check23_speedup_jobs4" f !speedup_min
             end
             else skip_speedup "check23_speedup_jobs4" f
           | "check23_speedup_jobs2", Json.Num f ->
             if gate_speedups then begin
               let ok = f >= 1.0 in
               if not ok then incr failures;
               Printf.printf
                 "  %s %-24s %.2fx (min 1.00x: 2 domains must not regress)\n"
                 (if ok then "ok  " else "FAIL")
                 "check23_speedup_jobs2" f
             end
             else skip_speedup "check23_speedup_jobs2" f
           | "trace_disabled_overhead", Json.Num f ->
             let ok = f <= !overhead_max in
             if not ok then incr failures;
             Printf.printf
               "  %s %-24s %.4f (max %.4f: disabled tracing per statement)\n"
               (if ok then "ok  " else "FAIL")
               "trace_disabled_overhead" f !overhead_max
           | "constraint_delta_speedup", Json.Num f ->
             if !delta_min > 0. then begin
               let ok = f >= !delta_min in
               if not ok then incr failures;
               Printf.printf
                 "  %s %-24s %.2fx (min %.2fx: differential commit vs \
                  from-scratch checks)\n"
                 (if ok then "ok  " else "FAIL")
                 "constraint_delta_speedup" f !delta_min
             end
             else
               Printf.printf
                 "  skip %-24s %.2fx (gate disabled: --delta-speedup-min 0)\n"
                 "constraint_delta_speedup" f
           | "session_warm_speedup", Json.Num f ->
             let ok = f >= !session_min in
             if not ok then incr failures;
             Printf.printf
               "  %s %-24s %.2fx (min %.2fx: warm session vs per-request setup)\n"
               (if ok then "ok  " else "FAIL")
               "session_warm_speedup" f !session_min
           | "monitor_commit_overhead", Json.Num f ->
             if !monitor_max > 0. then begin
               let ok = f <= !monitor_max in
               if not ok then incr failures;
               Printf.printf
                 "  %s %-24s %.2fx (max %.2fx: monitored commit vs bare \
                  commit)\n"
                 (if ok then "ok  " else "FAIL")
                 "monitor_commit_overhead" f !monitor_max
             end
             else
               Printf.printf
                 "  skip %-24s %.2fx (gate disabled: --monitor-overhead-max 0)\n"
                 "monitor_commit_overhead" f
           | "gateway_rps", Json.Num f ->
             if !rps_min > 0. then begin
               let ok = f >= !rps_min in
               if not ok then incr failures;
               Printf.printf
                 "  %s %-24s %.0f req/s (min %.0f req/s: pipelined gateway \
                  throughput)\n"
                 (if ok then "ok  " else "FAIL")
                 "gateway_rps" f !rps_min
             end
             else
               Printf.printf
                 "  skip %-24s %.0f req/s (gate disabled: --rps-min 0)\n"
                 "gateway_rps" f
           | ("commit_alloc_ratio" as k), Json.Num f ->
             gate_max k f !commit_alloc_max "--commit-alloc-ratio-max"
               "commit allocation, n = 8k over 2k"
           | ("active_domain_alloc_ratio" as k), Json.Num f ->
             gate_max k f !domain_alloc_max "--active-domain-alloc-ratio-max"
               "active-domain allocation, n = 8k over 2k"
           | k, Json.Num f -> Printf.printf "  info %-24s %.2fx (not gated)\n" k f
           | _ -> ())
         kvs
     | _ -> ());
    (* an enabled size-sweep gate needs its figure in the report *)
    List.iter
      (fun (name, max) ->
        let derived = Option.value ~default:Json.Null (field "derived" cur) in
        if max > 0. && Option.is_none (field name derived) then begin
          incr failures;
          Printf.printf "  FAIL %-24s missing from the current report\n" name
        end)
      [
        ("commit_alloc_ratio", !commit_alloc_max);
        ("active_domain_alloc_ratio", !domain_alloc_max);
      ];
    if !failures > 0 then begin
      Printf.printf
        "perf gate FAILED: %d metric(s) regressed more than %.0f%%\n\
         (apply the bench-override label to the PR to ship a known regression\n\
         and refresh bench/baseline.json in the same change)\n"
        !failures (100. *. !threshold);
      exit 1
    end
    else print_endline "perf gate passed"

(* End-to-end runs: the real [fds serve] binary as a child process,
   driven by one single-threaded closed-loop generator that selects
   over at most two client connections (plus the subscriber in
   monitor_mix) and checks every reply against the model. *)

open Fdbs_kernel
open Fdbs_rpr
module Protocol = Fdbs_service.Protocol

let now = Mclock.now

exception Failed of string

let failf fmt = Fmt.kstr (fun m -> raise (Failed m)) fmt

(* --- child processes --- *)

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children

(* Stop a child: a grace period for its own shutdown, then SIGKILL; it
   is always waited for. *)
let wait_or_kill ?(grace = 10.) pid =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  reap pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* --- run directories --- *)

type files = {
  dir : string;
  schema_file : string;
  theory_file : string;
  journal : string;
  sock : string;
  log : string;
}

let counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Write the workload's schema, theory, snapshot and empty journal into
   a fresh directory under [root]. *)
let prepare ~root ~seed (p : Gen.params) : files * Schema.t * Gen.store =
  incr counter;
  let dir =
    Filename.concat root
      (Fmt.str "%s-%d-%d" (Gen.name p.Gen.kind) (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  mkdir_p dir;
  let f name = Filename.concat dir name in
  let files =
    {
      dir;
      schema_file = f "workload.schema";
      theory_file = f "workload.theory";
      journal = f "store.journal";
      sock = f "fds.sock";
      log = f "serve.log";
    }
  in
  let src = Gen.schema_src p in
  write_file files.schema_file src;
  write_file files.theory_file Gen.theory_src;
  let schema = Rparser.schema_exn src in
  let store = Gen.store ~seed p in
  let db = Gen.db_of_store schema p store in
  (match
     Replication.save_snapshot
       (Replication.snapshot_path files.journal)
       { Replication.snap_epoch = 0; snap_offset = 0; snap_db = db }
   with
  | Ok () -> ()
  | Error e -> failf "snapshot: %s" (Error.to_string e));
  write_file files.journal "";
  (files, schema, store)

(* --- framing --- *)

let frame payload = Fmt.str "%d\n%s\n" (String.length payload) payload

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

type link = { fd : Unix.file_descr; rd : Protocol.Reader.t }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; rd = Protocol.Reader.create fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let recv_blocking ~deadline (l : link) : string =
  let rec go () =
    match Protocol.Reader.next l.rd ~block:false with
    | `Frame s -> s
    | `Eof -> failf "server closed the connection"
    | `Pending ->
      if now () > deadline then failf "no reply before the deadline";
      (try ignore (Unix.select [ l.fd ] [] [] (Float.max 0. (deadline -. now ())))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
  in
  go ()

let rpc ?(timeout = 30.) (l : link) payload : Json.t =
  write_all l.fd (frame payload);
  let reply = recv_blocking ~deadline:(now () +. timeout) l in
  match Json.parse reply with
  | v -> v
  | exception Json.Parse_error m -> failf "unparsable reply: %s" m

let result_of (v : Json.t) =
  match Option.bind (Json.field "ok" v) Json.to_bool_opt with
  | Some true -> Option.value ~default:Json.Null (Json.field "result" v)
  | _ -> failf "request refused: %s" (Json.to_string v)

(* --- the server --- *)

type server = { pid : int; setup : link; sub : link option }

let spawn ~fds ~(files : files) (p : Gen.params) : int =
  write_file files.journal "";
  let monitors =
    match p.Gen.kind with
    | Gen.Monitor_mix -> [ "--monitors"; files.theory_file ]
    | _ -> []
  in
  let args =
    [
      fds; "serve"; files.schema_file; "--socket"; files.sock; "--journal";
      files.journal; "--transactional"; "--check-constraints";
    ]
    @ monitors
  in
  let log =
    Unix.openfile files.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  let pid = Unix.create_process fds (Array.of_list args) r log log in
  Unix.close r;
  Unix.close log;
  children := pid :: !children;
  pid

(* Boot the server and time it until it answers its first request —
   plus the subscription in monitor_mix. *)
let boot ~fds ~files (p : Gen.params) : server * float =
  let t0 = now () in
  let pid = spawn ~fds ~files p in
  let deadline = t0 +. 120. in
  let rec reach () =
    if now () > deadline then failf "server did not answer within 120 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      reap pid;
      failf "server exited during set-up (log: %s)" files.log);
    match connect files.sock with
    | Some l -> l
    | None ->
      Unix.sleepf 0.0005;
      reach ()
  in
  let setup = reach () in
  ignore (result_of (rpc setup {|{"id": 0, "op": "ping"}|}));
  let sub =
    match p.Gen.kind with
    | Gen.Monitor_mix ->
      let l = Option.get (connect files.sock) in
      let res = result_of (rpc l {|{"id": 0, "op": "subscribe"}|}) in
      if Option.bind (Json.field "subscribed" res) Json.to_bool_opt <> Some true
      then failf "subscribe not acknowledged";
      (* the heartbeat that follows every subscription *)
      ignore (recv_blocking ~deadline:(now () +. 30.) l);
      Some l
    | _ -> None
  in
  ({ pid; setup; sub }, now () -. t0)

let close_link l = try Unix.close l.fd with Unix.Unix_error _ -> ()

let shutdown (s : server) =
  (try ignore (rpc ~timeout:10. s.setup {|{"id": 0, "op": "shutdown"}|})
   with Failed _ | Unix.Unix_error _ -> ());
  close_link s.setup;
  Option.iter close_link s.sub;
  wait_or_kill s.pid

let peak_rss_mb pid =
  let ic = open_in (Fmt.str "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* User plus system CPU time of a process, in clock ticks: fields 14
   and 15 of /proc/PID/stat, counted after the parenthesised command
   name. *)
let cpu_ticks pid =
  let ic = open_in (Fmt.str "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let close = String.rindex line ')' in
  let fields =
    Array.of_list
      (String.split_on_char ' ' (String.sub line (close + 2) (String.length line - close - 2)))
  in
  int_of_string fields.(11) + int_of_string fields.(12)

(* Linux reports /proc times in USER_HZ, which is 100 on every
   architecture it supports. *)
let clock_ticks = 100.

(* All CPU time of the machine and the part of it stolen by the
   hypervisor for other guests, from the first line of /proc/stat. *)
let cpu_and_steal () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let ticks =
    List.filter_map int_of_string_opt (String.split_on_char ' ' line)
  in
  (List.fold_left ( + ) 0 ticks, match List.nth_opt ticks 7 with Some s -> s | None -> 0)

(* The intercept of the least-squares line through (xs, ys): y at
   x = 0. With no spread in xs it is the mean of ys. A fit that is not
   positive (a short window, noise) falls back to the mean at the
   caller. *)
let intercept (xs : float array) (ys : float array) =
  let n = float_of_int (Array.length xs) in
  let mean a = Array.fold_left ( +. ) 0. a /. n in
  let mx = mean xs and my = mean ys in
  let sxx = ref 0. and sxy = ref 0. in
  Array.iteri
    (fun i x ->
      sxx := !sxx +. ((x -. mx) *. (x -. mx));
      sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my)))
    xs;
  if !sxx > 0. then my -. (!sxy /. !sxx *. mx) else my

(* --- the closed loop --- *)

type pending = {
  id : int;
  sent : float;
  req : Gen.request;
  expect : Gen.expect;
}

type conn = {
  link : link;
  stream : Gen.stream;
  inflight : pending Queue.t;
}

type outcome = {
  setups : float list;  (** the start times that count *)
  ops_per_s : float;  (** extrapolated to no steal *)
  cpu_us_per_op : float;  (** the server's, extrapolated to no steal *)
  slices_counted : int;  (** of the window's 0.25-s slices *)
  steal : float;  (** share of the machine's CPU stolen over the window *)
  all : Stats.t;
  reads : Stats.t;
  commits : Stats.t;
  events : Stats.t;
  attempted : int;
  failed : int;
  rss_mb : float;
  stats : Json.t;  (** the server's [stats] result at the end *)
  errors : string list;
}

let expected_reply id = function
  | Gen.Answer b -> `Exact (Protocol.ok_response ~id:(Json.Num (float_of_int id)) (Json.Bool b))
  | Gen.Committed ->
    `Prefix (Fmt.str {|{"id": %d, "ok": true, "result": {"completed": 1, "state": |} id)

let reply_ok id expect reply =
  match expected_reply id expect with
  | `Exact s -> String.equal s reply
  | `Prefix pre -> String.starts_with ~prefix:pre reply

let counter_of (stats : Json.t) name =
  match Option.bind (Json.field "metrics" stats) (Json.field name) with
  | Some v -> Option.value ~default:0 (Json.to_int_opt v)
  | None -> 0

(* Requests the server refused at admission: throttled, shed, or
   malformed frames. The benchmark expects none. *)
let refused stats =
  counter_of stats "service.throttled" + counter_of stats "service.shed"
  + counter_of stats "service.bad_frames"

let run ~fds ~root ~seed ~seconds ~warmup ?setups (p : Gen.params) : outcome =
  let setups = Option.value setups ~default:p.Gen.setups in
  let files, _, store = prepare ~root ~seed p in
  let errors = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let fail msg =
    incr failed;
    if List.length !errors < 10 then errors := msg :: !errors
  in
  (* Set up several times and keep the last server. Each start is
     timed with the machine's steal over it; the starts at or below
     the median steal count, as the window's slices do below. *)
  let rec boots i acc =
    let total0, stolen0 = cpu_and_steal () in
    let server, t = boot ~fds ~files p in
    let total, stolen = cpu_and_steal () in
    let steal = float_of_int (stolen - stolen0) /. float_of_int (max 1 (total - total0)) in
    if i < setups then begin
      shutdown server;
      boots (i + 1) ((t, steal) :: acc)
    end
    else (server, List.rev ((t, steal) :: acc))
  in
  let server, starts = boots 1 [] in
  let quiet = Stats.median_of (List.map snd starts) in
  let setup_times = List.filter_map (fun (t, st) -> if st <= quiet then Some t else None) starts in
  Fun.protect ~finally:(fun () -> if List.mem server.pid !children then shutdown server)
  @@ fun () ->
  let conns =
    Array.init p.Gen.conns (fun i ->
        let link =
          if i = 0 then server.setup
          else
            match connect files.sock with
            | Some l -> l
            | None -> failf "cannot open client connection %d" i
        in
        { link; stream = Gen.stream ~seed store p i; inflight = Queue.create () })
  in
  (* The window is cut into slices; each op counts in the slice it
     completes in. The machine's CPU steal (time the hypervisor gave
     these CPUs to other guests) is sampled per slice. On a shared host
     it comes in bursts that slow a run by up to 40%, so the figures
     discount it: throughput and CPU per op are the least-squares fit
     across slices extrapolated to no steal, and latencies come from the
     slices at or below the first quartile of steal. With no steal every
     slice counts as it is. *)
  let slice = 0.25 in
  let nslices = max 1 (int_of_float (Float.ceil (seconds /. slice))) in
  let per_slice () = Array.init nslices (fun _ -> Stats.create ()) in
  let all = per_slice () and reads = per_slice ()
  and commits = per_slice () and events = per_slice () in
  let steal = Array.make nslices 0. and cpu = Array.make nslices 0 in
  let next_id = ref 1 in
  let acked = ref [] in
  let retracts = Queue.create () in
  let retracts_acked = ref 0 and events_seen = ref 0 in
  let t_start = now () in
  let t_window = t_start +. warmup in
  let t_end = t_window +. seconds in
  let in_window t = t >= t_window && t < t_end in
  let slice_of t = min (nslices - 1) (int_of_float ((t -. t_window) /. slice)) in
  let send (c : conn) =
    let buf = Buffer.create 256 in
    while Queue.length c.inflight < p.Gen.window do
      let req, expect = Gen.next c.stream in
      let id = !next_id in
      incr next_id;
      Buffer.add_string buf (frame (Gen.frame ~id req));
      let sent = now () in
      Queue.push { id; sent; req; expect } c.inflight;
      incr attempted;
      if Gen.is_retract req then Queue.push sent retracts
    done;
    if Buffer.length buf > 0 then write_all c.link.fd (Buffer.contents buf)
  in
  let on_reply (c : conn) reply =
    let t = now () in
    match Queue.take_opt c.inflight with
    | None -> fail "reply with no request in flight"
    | Some pd ->
      if not (reply_ok pd.id pd.expect reply) then
        fail
          (Fmt.str "request %d (%s): unexpected reply %s" pd.id
             (Gen.frame ~id:pd.id pd.req)
             (if String.length reply > 200 then String.sub reply 0 200 ^ "..." else reply))
      else begin
        (match pd.req with
        | Gen.Call (name, args) ->
          acked := Gen.call_string name args :: !acked;
          if Gen.is_retract pd.req then incr retracts_acked
        | _ -> ());
        if in_window t then begin
          let us = (t -. pd.sent) *. 1e6 and k = slice_of t in
          Stats.add all.(k) us;
          Stats.add (if Gen.is_read pd.req then reads.(k) else commits.(k)) us
        end
      end
  in
  let on_event frame_s =
    let t = now () in
    match Json.parse frame_s with
    | exception Json.Parse_error m -> fail ("unparsable event frame: " ^ m)
    | v -> (
      match Protocol.classify_frame v with
      | `Event "heartbeat" -> ()
      | `Event "violation" ->
        let monitor = Option.bind (Json.field "monitor" v) Json.to_string_opt in
        if monitor <> Some "no_retract" then fail ("unexpected violation " ^ frame_s)
        else (
          incr events_seen;
          match Queue.take_opt retracts with
          | None -> fail "violation with no retract outstanding"
          | Some sent ->
            if in_window t then Stats.add events.(slice_of t) ((t -. sent) *. 1e6))
      | _ -> fail ("unexpected frame on the subscriber: " ^ frame_s))
  in
  let drain_link l handle =
    let rec go () =
      match Protocol.Reader.next l.rd ~block:false with
      | `Frame s ->
        handle s;
        go ()
      | `Pending -> ()
      | `Eof -> failf "server closed a connection"
    in
    go ()
  in
  let step ~sending ~timeout =
    if sending then Array.iter send conns;
    let fds =
      Array.to_list (Array.map (fun c -> c.link.fd) conns)
      @ Option.to_list (Option.map (fun l -> l.fd) server.sub)
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      Array.iter
        (fun c -> if List.mem c.link.fd ready then drain_link c.link (on_reply c))
        conns;
      Option.iter
        (fun l -> if List.mem l.fd ready then drain_link l on_event)
        server.sub
  in
  (* at every slice boundary, sample the machine's steal and the
     server's CPU time, closing the slice that ends there *)
  let last = ref None and next = ref 0 in
  let boundary () =
    let ((total, stolen), ticks) as cur = (cpu_and_steal (), cpu_ticks server.pid) in
    (match !last with
    | Some ((total0, stolen0), ticks0) when !next >= 1 && !next <= nslices ->
      steal.(!next - 1) <- float_of_int (stolen - stolen0) /. float_of_int (max 1 (total - total0));
      cpu.(!next - 1) <- ticks - ticks0
    | _ -> ());
    last := Some cur;
    incr next
  in
  while now () < t_end do
    step ~sending:true ~timeout:(Float.min 0.05 (Float.max 0. (t_end -. now ())));
    if now () >= t_window +. (float_of_int !next *. slice) then boundary ()
  done;
  (* the last boundary falls on the loop's exit *)
  if !next <= nslices then boundary ();
  let threshold = Stats.quantile_of steal 0.25 in
  let counted = List.filter (fun k -> steal.(k) <= threshold) (List.init nslices Fun.id) in
  let merge per =
    let m = Stats.create () in
    List.iter (fun k -> Array.iter (Stats.add m) (Stats.to_array per.(k))) counted;
    m
  in
  let at_no_steal ys =
    let ys = Array.map float_of_int ys in
    match intercept steal ys with
    | v when Float.is_finite v && v > 0. -> v
    | _ -> Array.fold_left ( +. ) 0. ys /. float_of_int nslices
  in
  let ops = at_no_steal (Array.map Stats.count all) in
  let server_ticks = at_no_steal cpu in
  let mean_steal = Array.fold_left ( +. ) 0. steal /. float_of_int nslices in
  (* stop sending; every request still in flight must be answered *)
  let deadline = now () +. 60. in
  while Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns && now () < deadline do
    step ~sending:false ~timeout:0.5
  done;
  Array.iter
    (fun c ->
      Queue.iter (fun pd -> fail (Fmt.str "request %d got no reply" pd.id)) c.inflight)
    conns;
  (* every acknowledged retract fires exactly one violation *)
  let deadline = now () +. 10. in
  while !events_seen < !retracts_acked && now () < deadline do
    step ~sending:false ~timeout:0.1
  done;
  if !events_seen <> !retracts_acked then
    fail (Fmt.str "%d violation events for %d retracts" !events_seen !retracts_acked);
  (* the final state must equal the model *)
  incr attempted;
  let state = result_of (rpc conns.(0).link {|{"id": 0, "op": "state"}|}) in
  List.iter fail (Gen.check_state p store.Gen.model state);
  incr attempted;
  let stats = result_of (rpc conns.(0).link {|{"id": 0, "op": "stats"}|}) in
  let refused = refused stats in
  if refused > 0 then fail (Fmt.str "server refused %d requests" refused);
  let rss_mb = peak_rss_mb server.pid in
  for i = 1 to Array.length conns - 1 do
    close_link conns.(i).link
  done;
  shutdown server;
  (* the journal holds exactly the acknowledged commits *)
  incr attempted;
  (match Journal.load files.journal with
  | Error e -> fail ("journal: " ^ Error.to_string e)
  | Ok (entries, _) ->
    let journaled =
      List.concat_map
        (fun (e : Journal.entry) ->
          List.map (fun c -> Fmt.str "%a" Journal.pp_call c) e.Journal.calls)
        entries
    in
    if List.sort compare journaled <> List.sort compare !acked then
      fail
        (Fmt.str "journal holds %d calls, %d commits were acknowledged"
           (List.length journaled) (List.length !acked)));
  if !failed = 0 then rm_rf files.dir;
  {
    setups = setup_times;
    ops_per_s = ops /. slice;
    cpu_us_per_op = server_ticks /. clock_ticks *. 1e6 /. ops;
    slices_counted = List.length counted;
    steal = mean_steal;
    all = merge all;
    reads = merge reads;
    commits = merge commits;
    events = merge events;
    attempted = !attempted;
    failed = !failed;
    rss_mb;
    stats;
    errors = List.rev !errors;
  }

(* The fds serve wire protocol: newline-delimited length-prefixed JSON
   frames, one request/response pair per frame exchange. A frame is

     <decimal byte length of payload> '\n' <payload bytes> '\n'

   where the payload is one JSON document. Requests are objects
   {"id": <any>, "op": <string>, ...}; responses echo the id and carry
   either {"ok": true, "result": ...} or {"ok": false, "error": ...}
   with the error rendered by Fdbs_kernel.Error.to_json. Serialization
   uses the kernel's deterministic Json.to_string, so responses are
   stable byte-for-byte across runs. *)

open Fdbs_kernel
open Fdbs_rpr

let max_frame = 16 * 1024 * 1024

let proto_error fmt =
  Fmt.kstr (fun m -> Error.make Error.Parse Error.Exec_failure m) fmt

(* --- values and states as JSON --- *)

let value_of_json : Json.t -> Value.t option = function
  | Json.Bool b -> Some (Value.Bool b)
  | Json.Num f when Float.is_integer f -> Some (Value.Int (int_of_float f))
  | Json.Str s -> Some (Value.Sym s)
  | _ -> None

(* A state renders straight from the relations into the reply buffer:
   no per-tuple tree, no element lists. Each relation's tuples come
   from its chunked text cache ({!Relation.render_text}), so a state
   one commit away from a rendered one re-renders only the chunks the
   commit touched. The bytes are the ones the tree {"relations": {NAME:
   [[v, ...], ...], ...}, "scalars": {NAME: v, ...}} would render to. *)
let add_value buf = function
  | Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.Int n -> Json.add_int buf n
  | Value.Sym s -> Json.add_string buf s

let rec add_values buf = function
  | [] -> ()
  | [ v ] -> add_value buf v
  | v :: rest ->
    add_value buf v;
    Buffer.add_string buf ", ";
    add_values buf rest

(* The one tuple renderer: a toplevel function, so every state renders
   through the physically same closure and shares one text cache. *)
let add_tuple buf tu =
  Buffer.add_char buf '[';
  add_values buf tu;
  Buffer.add_char buf ']'

let db_to_json (db : Db.t) : Json.t =
  Json.Deferred
    (fun buf ->
      let obj add_member m =
        let first = ref true in
        Buffer.add_char buf '{';
        Db.SMap.iter
          (fun name x ->
            if !first then first := false else Buffer.add_string buf ", ";
            Json.add_string buf name;
            Buffer.add_string buf ": ";
            add_member x)
          m;
        Buffer.add_char buf '}'
      in
      let rel r =
        Buffer.add_char buf '[';
        Relation.render_text ~render:add_tuple buf r;
        Buffer.add_char buf ']'
      in
      Buffer.add_string buf "{\"relations\": ";
      obj rel db.Db.relations;
      Buffer.add_string buf ", \"scalars\": ";
      obj (add_value buf) db.Db.scalars;
      Buffer.add_char buf '}')

(* The inverse, against a schema: how a follower decodes a leader
   snapshot shipped inside a fetch response. *)
let db_of_json ~(schema : Schema.t) (v : Json.t) : (Db.t, Error.t) result =
  let ( let* ) = Result.bind in
  let fields = function Some (Json.Obj fs) -> Ok fs | _ -> Ok [] in
  let* rels = fields (Json.field "relations" v) in
  let* scalars = fields (Json.field "scalars" v) in
  let empty = Schema.empty_db schema in
  let* db =
    List.fold_left
      (fun acc (name, tuples) ->
        let* db = acc in
        match Db.relation empty name with
        | None -> Result.Error (proto_error "state names unknown relation %s" name)
        | Some r0 ->
          let sorts = Relation.sorts r0 in
          (match Json.to_list_opt tuples with
           | None ->
             Result.Error (proto_error "relation %s: tuples must be an array" name)
           | Some items ->
             let* tuples =
               Util.result_all
                 (List.map
                    (fun item ->
                      match Json.to_list_opt item with
                      | None ->
                        Result.Error
                          (proto_error "relation %s: tuple must be an array" name)
                      | Some vs ->
                        let vals = List.filter_map value_of_json vs in
                        if List.length vals <> List.length sorts then
                          Result.Error
                            (proto_error "relation %s: arity mismatch" name)
                        else Ok vals)
                    items)
             in
             Ok (Db.with_relation name (Relation.of_list sorts tuples) db)))
      (Ok empty) rels
  in
  List.fold_left
    (fun acc (name, jv) ->
      let* db = acc in
      match value_of_json jv with
      | Some value -> Ok (Db.with_scalar name value db)
      | None -> Result.Error (proto_error "scalar %s: not a scalar value" name))
    (Ok db) scalars

(* --- procedure calls --- *)

(* The same concrete syntax the CLI accepts on the command line:
   name(arg, ...) with integer literals and symbolic constants. *)
let parse_call (s : string) : (Journal.call, Error.t) result =
  match String.index_opt s '(' with
  | None -> Ok (String.trim s, [])
  | Some i ->
    let name = String.trim (String.sub s 0 i) in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match String.index_opt rest ')' with
     | None -> Result.Error (proto_error "missing ')' in call %S" s)
     | Some j ->
       let args = String.sub rest 0 j in
       let args =
         if String.trim args = "" then []
         else
           String.split_on_char ',' args
           |> List.map (fun a ->
                  let a = String.trim a in
                  match int_of_string_opt a with
                  | Some n -> Value.Int n
                  | None -> Value.Sym a)
       in
       Ok (name, args))

let call_of_json (v : Json.t) : (Journal.call, Error.t) result =
  match v with
  | Json.Str s -> parse_call s
  | Json.Obj _ ->
    (match Option.bind (Json.field "proc" v) Json.to_string_opt with
     | None -> Result.Error (proto_error "call object needs a \"proc\" string")
     | Some name ->
       let args =
         match Json.field "args" v with
         | None -> Some []
         | Some a ->
           Option.bind (Json.to_list_opt a) (fun items ->
               let vals = List.filter_map value_of_json items in
               if List.length vals = List.length items then Some vals else None)
       in
       (match args with
        | Some args -> Ok (name, args)
        | None ->
          Result.Error (proto_error "call %s: args must be scalar values" name)))
  | _ -> Result.Error (proto_error "calls must be strings or objects")

(* --- framing --- *)

(* Write a frame into the channel's buffer without flushing — the
   pipelined server corks a burst of responses and flushes once. The
   one envelope: [len] and a newline, the payload [body] writes, and a
   newline. *)
let output_envelope (oc : out_channel) len body =
  output_string oc (string_of_int len);
  output_char oc '\n';
  body oc;
  output_char oc '\n'

let output_frame (oc : out_channel) (payload : string) : unit =
  output_envelope oc (String.length payload) (fun oc -> output_string oc payload)

let output_buffer_frame (oc : out_channel) (payload : Buffer.t) : unit =
  output_envelope oc (Buffer.length payload) (fun oc -> Buffer.output_buffer oc payload)

(* --- the frame reader --- *)

(* The one frame parser, over a raw file descriptor, for both ends of
   a connection. It can tell "no more input available right now"
   ([`Pending]) apart from "blocked waiting for the next request", so
   the server can drain every frame the client already sent, answer
   them all, and flush the responses in one write before blocking
   again; {!Client} reads with [block:true]. *)
module Reader = struct
  type t = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable pos : int;  (** start of the unconsumed window *)
    mutable len : int;  (** end of the valid window *)
    mutable eof : bool;
  }

  let create ?(size = 64 * 1024) fd =
    { fd; buf = Bytes.create size; pos = 0; len = 0; eof = false }

  (* Read more bytes (blocking); false once the stream has ended. A
     reset peer ends the stream the same way a close does. *)
  let fill r =
    if r.eof then false
    else begin
      if r.pos > 0 then begin
        Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
        r.len <- r.len - r.pos;
        r.pos <- 0
      end;
      if r.len = Bytes.length r.buf then begin
        let bigger = Bytes.create (2 * Bytes.length r.buf) in
        Bytes.blit r.buf 0 bigger 0 r.len;
        r.buf <- bigger
      end;
      match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
      | 0 ->
        r.eof <- true;
        false
      | n ->
        r.len <- r.len + n;
        true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        r.eof <- true;
        false
    end

  (* One complete frame from the buffered bytes, or [`More]. Blank
     header lines are consumed and skipped, not read as end of stream:
     a stray keepalive newline from a pipelining client must not kill
     the connection. Raises {!Error.Error} on a malformed frame. *)
  let try_frame r : [ `Frame of string | `More ] =
    let fail e = raise (Error.Error e) in
    let rec go () =
      let rec find_nl i =
        if i >= r.len then None
        else if Bytes.get r.buf i = '\n' then Some i
        else find_nl (i + 1)
      in
      match find_nl r.pos with
      | None when not r.eof ->
        (* no header newline yet; a "header" longer than any length
           literal is malformed, not pending *)
        if r.len - r.pos > 32 then
          fail (proto_error "bad frame header: no length before newline")
        else `More
      | None -> (
        (* at EOF only blank bytes may remain (32 at most: the branch
           above rejects longer ones before EOF); a cut-off length or
           stray text is malformed, not a clean end of stream *)
        match String.trim (Bytes.sub_string r.buf r.pos (r.len - r.pos)) with
        | "" -> `More
        | rest when Option.is_some (int_of_string_opt rest) ->
          fail (proto_error "truncated frame at end of stream")
        | rest -> fail (proto_error "bad frame header %S: expected a length" rest))
      | Some nl ->
        let header = String.trim (Bytes.sub_string r.buf r.pos (nl - r.pos)) in
        if header = "" then begin
          r.pos <- nl + 1;
          go ()
        end
        else (
          match int_of_string_opt header with
          | None ->
            fail (proto_error "bad frame header %S: expected a length" header)
          | Some n when n < 0 || n > max_frame ->
            fail (proto_error "bad frame length %d" n)
          | Some n ->
            let start = nl + 1 in
            if r.len - start > n then begin
              let payload = Bytes.sub_string r.buf start n in
              if Bytes.get r.buf (start + n) <> '\n' then
                fail (proto_error "frame missing trailing newline");
              r.pos <- start + n + 1;
              `Frame payload
            end
            else if r.eof && r.len - start = n then begin
              (* tolerate a missing trailing newline at EOF *)
              let payload = Bytes.sub_string r.buf start n in
              r.pos <- start + n;
              `Frame payload
            end
            else if r.eof then
              fail (proto_error "truncated frame at end of stream")
            else `More)
    in
    go ()

  (** The next frame. With [block:false] the reader consumes only what
      is already buffered or immediately readable and answers
      [`Pending] when the pipeline is drained; with [block:true] it
      waits for the next request. [`Eof] is a clean end of stream.
      Raises {!Error.Error} on a malformed frame. *)
  let next (r : t) ~(block : bool) : [ `Frame of string | `Eof | `Pending ] =
    let rec go () =
      match try_frame r with
      | `Frame p -> `Frame p
      | `More ->
        if r.eof then `Eof
        else if block then begin
          ignore (fill r);
          go ()
        end
        else (
          match Unix.select [ r.fd ] [] [] 0. with
          | [], _, _ -> `Pending
          | _ ->
            ignore (fill r);
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Pending)
    in
    go ()
end

(* --- requests and responses --- *)

type request = {
  id : Json.t;
  op : string;
  body : Json.t;
}

(* Errors carry the request id when the JSON parsed well enough to
   have one, so a pipelining client can match the rejection to the
   request it sent. (Error replies used to always say [id: null].) *)
let request_of_json (v : Json.t) : (request, Json.t * Error.t) result =
  let id = Option.value ~default:Json.Null (Json.field "id" v) in
  match Option.bind (Json.field "op" v) Json.to_string_opt with
  | None -> Result.Error (id, proto_error "request needs an \"op\" string")
  | Some op -> Ok { id; op; body = v }

let request_of_string (s : string) : (request, Json.t * Error.t) result =
  match Json.parse s with
  | exception Json.Parse_error m ->
    Result.Error (Json.Null, proto_error "request is not valid JSON: %s" m)
  | v -> request_of_json v

let response_obj ~id body = Json.Obj (("id", id) :: body)

let ok_obj ~id result =
  response_obj ~id [ ("ok", Json.Bool true); ("result", result) ]

let error_obj ~id (e : Error.t) =
  response_obj ~id [ ("ok", Json.Bool false); ("error", Error.to_json e) ]

let ok_response ~id result = Json.to_string (ok_obj ~id result)
let error_response ~id (e : Error.t) = Json.to_string (error_obj ~id e)

(* --- the per-operation dispatch, shared by the server loop --- *)

let field_string name req = Option.bind (Json.field name req.body) Json.to_string_opt
let field_bool name req = Option.bind (Json.field name req.body) Json.to_bool_opt

let missing op what = Result.Error (proto_error "%s needs a %s" op what)

let calls_of_request req : (Journal.call list, Error.t) result =
  match Json.field "calls" req.body with
  | None -> missing req.op "\"calls\" array"
  | Some v ->
    (match Json.to_list_opt v with
     | None -> missing req.op "\"calls\" array"
     | Some items -> Util.result_all (List.map call_of_json items))

(* Query parameters: an array of [name, sort, value] triples declaring
   extra constants bound in the wff, the wire form of ground queries. *)
let params_of_request req :
  ((string * Sort.t * Value.t) list, Error.t) result =
  match Json.field "params" req.body with
  | None -> Ok []
  | Some v ->
    (match Json.to_list_opt v with
     | None -> Result.Error (proto_error "params must be an array")
     | Some items ->
       Util.result_all
         (List.map
            (function
              | Json.Arr [ Json.Str name; Json.Str sort; value ] ->
                (match value_of_json value with
                 | Some v -> Ok (name, sort, v)
                 | None ->
                   Result.Error
                     (proto_error "param %s: value must be a scalar" name))
              | _ ->
                Result.Error
                  (proto_error
                     "params must be [name, sort, value] triples"))
            items))

(* --- replication: roles and the fetch op --- *)

(** What the serving process is, per store: a standalone server (every
    op allowed, no [fetch]), a leader (serves [fetch] from its journal
    log), or a follower (read-only: writes are rejected with a
    structured [Read_only] error). *)
type role =
  | Standalone
  | Leader of Fdbs_rpr.Replication.log
  | Follower of Replica.t

let num n = Json.Num (float_of_int n)

let snapshot_to_json (s : Fdbs_rpr.Replication.snapshot) : Json.t =
  Json.Obj
    [
      ("epoch", num s.Fdbs_rpr.Replication.snap_epoch);
      ("offset", num s.Fdbs_rpr.Replication.snap_offset);
      ("state", db_to_json s.Fdbs_rpr.Replication.snap_db);
    ]

let snapshot_of_json ~schema (v : Json.t) :
  (Fdbs_rpr.Replication.snapshot, Error.t) result =
  let int name = Option.bind (Json.field name v) Json.to_int_opt in
  match (int "epoch", int "offset", Json.field "state" v) with
  | Some e, Some o, Some state ->
    (match db_of_json ~schema state with
     | Ok db ->
       Ok
         {
           Fdbs_rpr.Replication.snap_epoch = e;
           snap_offset = o;
           snap_db = db;
         }
     | Result.Error e -> Result.Error e)
  | _ -> Result.Error (proto_error "snapshot needs epoch, offset, and state")

(* Entries travel as the CLI call syntax, which round-trips through
   parse_call for every value the CLI can introduce. *)
let stamped_to_json (s : Journal.stamped) : Json.t =
  Json.Obj
    [
      ("offset", num s.Journal.offset);
      ("epoch", num s.Journal.ep);
      ( "calls",
        Json.Arr
          (List.map
             (fun c -> Json.Str (Fmt.str "%a" Journal.pp_call c))
             s.Journal.entry.Journal.calls) );
    ]

let stamped_of_json (v : Json.t) : (Journal.stamped, Error.t) result =
  let int name = Option.bind (Json.field name v) Json.to_int_opt in
  match (int "offset", int "epoch", Json.field "calls" v) with
  | Some offset, Some ep, Some calls ->
    (match Json.to_list_opt calls with
     | None -> Result.Error (proto_error "entry calls must be an array")
     | Some items ->
       (match Util.result_all (List.map call_of_json items) with
        | Ok calls ->
          Ok { Journal.offset; ep; entry = { Journal.calls } }
        | Result.Error e -> Result.Error e))
  | _ -> Result.Error (proto_error "entry needs offset, epoch, and calls")

(** The follower's side of the [fetch] exchange: the request frame and
    the parsed response. *)
let fetch_request ~(id : Json.t) ~(from : int) ~(epoch : int) : string =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("op", Json.Str "fetch");
         ("from", num from);
         ("epoch", num epoch);
       ])

type fetched = {
  f_epoch : int;  (** the leader's current epoch *)
  f_base : int;  (** the leader's truncation base *)
  f_last : int;  (** the leader's last committed offset *)
  f_entries : Journal.stamped list;  (** empty = heartbeat *)
  f_snapshot : Fdbs_rpr.Replication.snapshot option;
      (** sent instead of entries when the follower is behind the
          leader's truncation base *)
}

let error_of_json (v : Json.t) : Error.t =
  let str name = Option.bind (Json.field name v) Json.to_string_opt in
  let message = Option.value ~default:"remote error" (str "message") in
  let context =
    match Json.field "context" v with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, jv) ->
          match jv with Json.Str s -> Some (k, s) | _ -> None)
        fields
    | _ -> []
  in
  let code =
    match str "code" with
    | Some "read-only" -> Error.Read_only
    | Some "stale-epoch" -> Error.Stale_epoch
    | Some "io-failure" -> Error.Io_failure
    | Some "overloaded" -> Error.Overloaded
    | Some "unauthorized" -> Error.Unauthorized
    | Some "monitor-violation" ->
      Error.Monitor_violation
        (Option.value ~default:"?" (List.assoc_opt "monitor" context))
    | _ -> Error.Exec_failure
  in
  Error.make ~context Error.Exec code message

let fetched_of_response ~schema (payload : string) : (fetched, Error.t) result =
  match Json.parse payload with
  | exception Json.Parse_error m ->
    Result.Error (proto_error "fetch response is not valid JSON: %s" m)
  | v ->
    (match Option.bind (Json.field "ok" v) Json.to_bool_opt with
     | Some false ->
       Result.Error
         (match Json.field "error" v with
          | Some e -> error_of_json e
          | None -> proto_error "fetch rejected")
     | _ ->
       (match Json.field "result" v with
        | None -> Result.Error (proto_error "fetch response has no result")
        | Some r ->
          let int name = Option.bind (Json.field name r) Json.to_int_opt in
          (match (int "epoch", int "base", int "last") with
           | Some f_epoch, Some f_base, Some f_last ->
             let entries =
               match Option.bind (Json.field "entries" r) Json.to_list_opt with
               | None -> Ok []
               | Some items -> Util.result_all (List.map stamped_of_json items)
             in
             (match entries with
              | Result.Error e -> Result.Error e
              | Ok f_entries ->
                (match Json.field "snapshot" r with
                 | None ->
                   Ok { f_epoch; f_base; f_last; f_entries; f_snapshot = None }
                 | Some sj ->
                   (match snapshot_of_json ~schema sj with
                    | Ok snap ->
                      Ok
                        {
                          f_epoch;
                          f_base;
                          f_last;
                          f_entries;
                          f_snapshot = Some snap;
                        }
                    | Result.Error e -> Result.Error e)))
           | _ ->
             Result.Error
               (proto_error "fetch response needs epoch, base, and last"))))

(* The leader's fetch handler. The replication.fetch fault site fires
   *before* the response is assembled and propagates as an exception:
   the server drops the connection — a stream cut mid-exchange that
   exercises the follower's reconnect path. *)
let handle_fetch (log : Fdbs_rpr.Replication.log) (session : Session.t)
    (req : request) : (Json.t, Error.t) result =
  let open Fdbs_rpr in
  Fault.hit "replication.fetch";
  let int name = Option.bind (Json.field name req.body) Json.to_int_opt in
  match int "from" with
  | None -> Result.Error (proto_error "fetch needs a \"from\" offset")
  | Some from ->
    let req_epoch = Option.value ~default:0 (int "epoch") in
    (match Replication.refresh log with
     | Result.Error e -> Result.Error e
     | Ok () ->
       let epoch = Replication.epoch log in
       if req_epoch > epoch then
         Result.Error
           (Error.makef
              ~context:
                [
                  ("leader", string_of_int epoch);
                  ("follower", string_of_int req_epoch);
                ]
              Error.Exec Error.Stale_epoch
              "stale leader: follower is at epoch %d, this leader at %d"
              req_epoch epoch)
       else
         let base = Replication.base log in
         let last = Replication.last_offset log in
         let header =
           [ ("epoch", num epoch); ("base", num base); ("last", num last) ]
         in
         if from < base then (
           (* the follower predates our truncation: ship the snapshot *)
           match
             Replication.load_snapshot ~schema:(Session.schema session)
               (Replication.snapshot_path (Replication.path log))
           with
           | Result.Error e -> Result.Error e
           | Ok (Some snap, _) ->
             Ok (Json.Obj (header @ [ ("snapshot", snapshot_to_json snap) ]))
           | Ok (None, why) ->
             Result.Error
               (Error.makef Error.Io Error.Io_failure
                  "fetch from %d predates the log base %d and no usable \
                   snapshot is available%s"
                  from base
                  (match why with Some w -> Fmt.str " (%s)" w | None -> "")))
         else
           let entries = Replication.entries_from log from in
           Ok
             (Json.Obj
                (header
                @ [ ("entries", Json.Arr (List.map stamped_to_json entries)) ])))

let replication_to_json (role : role) : (string * Json.t) list =
  let open Fdbs_rpr in
  match role with
  | Standalone -> []
  | Leader log ->
    [
      ( "replication",
        Json.Obj
          [
            ("role", Json.Str "leader");
            ("epoch", num (Replication.epoch log));
            ("base", num (Replication.base log));
            ("last", num (Replication.last_offset log));
          ] );
    ]
  | Follower r ->
    [
      ( "replication",
        Json.Obj
          [
            ("role", Json.Str "follower");
            ("epoch", num (Replica.epoch r));
            ("applied", num (Replica.applied r));
            ("snapshot", num (Replica.snapshot_offset r));
            ("degraded", Json.Bool (Replica.degraded r));
          ] );
    ]

let stats_to_json ?(role = Standalone) (s : Session.stats) : Json.t =
  let counters =
    List.map (fun (k, v) -> (k, num v)) s.Session.metrics.Metrics.counters
  in
  Json.Obj
    ([
       ("planner_hits", num s.Session.planner_hits);
       ("planner_misses", num s.Session.planner_misses);
       ("db_size", num s.Session.db_size);
       ("sessions", num s.Session.sessions);
       ("commits", num s.Session.commits);
       ("metrics", Json.Obj counters);
     ]
    @ replication_to_json role)

(* --- protocol versioning and monitor events --- *)

(* Version 1 is the original request/reply protocol (no [hello], no
   event frames); version 2 adds the [hello] handshake, the [monitor]
   status op, and server-pushed event frames on subscribed
   connections. Clients that never send [hello] are v1 and are served
   exactly as before. *)
let protocol_version = 2

(* The ops this server answers for the given role. [attach] and
   [subscribe] are connection-level: the server intercepts them before
   the per-request dispatch, so a bare {!handle} caller rejects them. *)
let supported_ops ~(role : role) : string list =
  let read =
    [
      "ping"; "hello"; "query"; "eval"; "explain"; "state"; "stats";
      "monitor"; "subscribe"; "batch"; "shutdown";
    ]
  in
  let write = [ "run"; "begin"; "commit"; "rollback"; "replay"; "attach" ] in
  match role with
  | Standalone -> read @ write
  | Leader _ -> read @ write @ [ "fetch" ]
  | Follower _ -> read

let kind_to_string : Fdbs_temporal.Tformula.kind -> string = function
  | Fdbs_temporal.Tformula.Static -> "static"
  | Fdbs_temporal.Tformula.Transition -> "transition"

let monitor_status_to_json (m : Session.monitor_status) : Json.t =
  Json.Obj
    [
      ("theory", Json.Str m.Session.mon_theory);
      ( "mode",
        Json.Str
          (match m.Session.mon_mode with
           | `Observe -> "observe"
           | `Enforce -> "enforce") );
      ("commits", num m.Session.mon_commits);
      ("violations", num m.Session.mon_violations);
      ( "axioms",
        Json.Arr
          (List.map
             (fun (a : Session.monitor_axiom) ->
               Json.Obj
                 [
                   ("name", Json.Str a.Session.ma_name);
                   ("kind", Json.Str (kind_to_string a.Session.ma_kind));
                   ("depth", num a.Session.ma_depth);
                   ("compiled", Json.Bool a.Session.ma_compiled);
                   ("violations", num a.Session.ma_violations);
                 ])
             m.Session.mon_axioms) );
      ( "skipped",
        Json.Obj
          (List.map (fun (n, r) -> (n, Json.Str r)) m.Session.mon_skipped) );
    ]

(* Event frames are pushed by the server on subscribed connections,
   interleaved with replies. They are tagged with an ["event"] member
   (and never carry ["id"]/["ok"]), so a client can tell them apart
   from the reply stream. *)
let violation_frame (ev : Monitor.event) : string =
  Json.to_string
    (Json.Obj
       [
         ("event", Json.Str "violation");
         ("monitor", Json.Str ev.Monitor.ev_axiom);
         ("kind", Json.Str (kind_to_string ev.Monitor.ev_kind));
         ("state", num ev.Monitor.ev_state);
       ])

let heartbeat_frame ~(commits : int) ~(violations : int) : string =
  Json.to_string
    (Json.Obj
       [
         ("event", Json.Str "heartbeat");
         ("commits", num commits);
         ("violations", num violations);
       ])

(** Classify an incoming frame on a subscribed connection: an event
    frame (tagged ["event"]) or an ordinary reply. *)
let classify_frame (v : Json.t) : [ `Event of string | `Reply ] =
  match Option.bind (Json.field "event" v) Json.to_string_opt with
  | Some e -> `Event e
  | None -> `Reply

type reply =
  | Reply of string
  | Final of string  (** reply, then shut the server down *)

(* Writes a follower could accept locally would fork the replica from
   the leader's history; they are rejected with a structured error the
   client can dispatch on. *)
let read_only op =
  Error.make
    ~context:[ ("op", op) ]
    Error.Exec Error.Read_only
    "read-only replica: writes must go to the leader"

(* Admission hook: the server charges its per-connection rate bucket
   through this, once per request — including once per sub-request of
   a batch, which is why it is threaded into the dispatch rather than
   applied only at the framing layer. *)
let no_admit () : (unit, Error.t) result = Ok ()

let rec handle_obj ?(role = Standalone) ?(admit = no_admit) ?(features = [])
    (session : Session.t) (req : request) : Json.t * bool =
  let id = req.id in
  let ok result = (ok_obj ~id result, false) in
  let err e = (error_obj ~id e, false) in
  let of_result to_json = function
    | Ok v -> ok (to_json v)
    | Result.Error e -> err e
  in
  match (req.op, role) with
  | ("run" | "begin" | "commit" | "rollback" | "replay"), Follower _ ->
    err (read_only req.op)
  | "fetch", Leader log -> of_result Fun.id (handle_fetch log session req)
  | "fetch", (Standalone | Follower _) ->
    err (proto_error "fetch is only served by a replication leader")
  | op, _ -> (
    match op with
  | "ping" -> ok (Json.Str "pong")
  | "hello" ->
    (* the v2 handshake: the client declares its version (absent = 1,
       but any client sending [hello] is at least 2) and learns what
       this server answers — the op set for its role and the
       connection's feature flags ("monitors", "subscribe", ...). The
       effective version is the lower of the two. *)
    let client =
      Option.value ~default:protocol_version
        (Option.bind (Json.field "version" req.body) Json.to_int_opt)
    in
    ok
      (Json.Obj
         [
           ("version", num (min client protocol_version));
           ( "ops",
             Json.Arr
               (List.map (fun o -> Json.Str o) (supported_ops ~role)) );
           ("features", Json.Arr (List.map (fun f -> Json.Str f) features));
         ])
  | "monitor" ->
    of_result monitor_status_to_json (Session.monitor session)
  | "subscribe" ->
    (* connection-level: the server swaps the connection into event
       streaming before dispatch ever sees the op *)
    err
      (proto_error
         "subscribe must be a connection's own request (served by fds serve)")
  | "batch" ->
    (* N requests in one frame: each sub-request is admitted and
       dispatched in order, and the reply carries the sub-responses as
       one array — one frame out for one frame in. *)
    (match Option.bind (Json.field "requests" req.body) Json.to_list_opt with
     | None | Some [] ->
       err (proto_error "batch needs a non-empty \"requests\" array")
     | Some items ->
       let sub item =
         match request_of_json item with
         | Result.Error (sub_id, e) -> error_obj ~id:sub_id e
         | Ok sub_req ->
           (match sub_req.op with
            | "batch" | "shutdown" | "fetch" | "attach" ->
              error_obj ~id:sub_req.id
                (proto_error "%S is not allowed inside a batch" sub_req.op)
            | _ ->
              (match admit () with
               | Result.Error e -> error_obj ~id:sub_req.id e
               | Ok () ->
                 fst (handle_obj ~role ~admit ~features session sub_req)))
       in
       ok (Json.Arr (List.map sub items)))
  | "run" ->
    (match calls_of_request req with
     | Result.Error e -> err e
     | Ok calls ->
       (match Session.run session calls with
        | Ok o ->
          ok
            (Json.Obj
               [
                 ( "completed",
                   Json.Num (float_of_int (List.length o.Session.completed)) );
                 ("state", db_to_json o.Session.state);
               ])
        | Result.Error f ->
          err
            {
              f.Session.fail_error with
              Error.context =
                ("completed",
                 string_of_int (List.length f.Session.fail_completed))
                :: f.Session.fail_error.Error.context;
            }))
  | "query" ->
    (match field_string "wff" req with
     | None -> err (proto_error "query needs a \"wff\" string")
     | Some wff ->
       (match params_of_request req with
        | Result.Error e -> err e
        | Ok params ->
          of_result (fun b -> Json.Bool b)
            (Session.query session ~params wff)))
  | "eval" ->
    (match field_string "term" req with
     | None -> err (proto_error "eval needs a \"term\" string")
     | Some term ->
       let trace = Option.value ~default:false (field_bool "trace" req) in
       of_result (fun s -> Json.Str s) (Session.eval session ~trace term))
  | "explain" ->
    let delta = Option.value ~default:false (field_bool "delta" req) in
    ok (Json.Str (Session.explain ~delta session))
  | "begin" -> of_result (fun () -> Json.Null) (Session.begin_txn session)
  | "commit" -> of_result db_to_json (Session.commit session)
  | "rollback" -> of_result db_to_json (Session.rollback session)
  | "state" -> ok (db_to_json (Session.db session))
  | "stats" -> ok (stats_to_json ~role (Session.stats session))
  | "replay" ->
    (match field_string "journal" req with
     | None ->
       err (proto_error "replay needs a \"journal\" string")
     | Some path ->
       of_result
         (fun r ->
           Json.Obj
             [
               ("entries", Json.Num (float_of_int r.Session.rep_entries));
               ("calls", Json.Num (float_of_int r.Session.rep_calls));
               ( "torn",
                 match r.Session.rep_torn with
                 | None -> Json.Null
                 | Some m -> Json.Str m );
               ("state", db_to_json r.Session.rep_state);
             ])
         (Session.replay session path))
  | "shutdown" -> (ok_obj ~id (Json.Str "bye"), true)
  | op -> err (proto_error "unknown operation %S" op))

let handle ?role ?admit ?features (session : Session.t) (req : request) : reply =
  let obj, final = handle_obj ?role ?admit ?features session req in
  let s = Json.to_string obj in
  if final then Final s else Reply s

(* The client side of a connection: one retry policy and the one frame
   parser for every caller that talks to [fds serve]. *)

open Fdbs_kernel

type t = { oc : out_channel; reader : Protocol.Reader.t }

let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ENETUNREACH
  | Unix.EPIPE ->
      true
  | _ -> false

let connect ?(retries = 0) addr =
  (* seeded only when a retry needs jitter, and never shared between
     domains *)
  let rng = lazy (Random.State.make_self_init ()) in
  let backoff k =
    let base = Float.min 1.0 (0.1 *. (2. ** float_of_int k)) in
    Unix.sleepf (base *. (0.75 +. Random.State.float (Lazy.force rng) 0.5))
  in
  let rec attempt k =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        Ok
          {
            oc = Unix.out_channel_of_descr fd;
            reader = Protocol.Reader.create fd;
          }
    | exception Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        if k < retries && transient err then (
          backoff k;
          attempt (k + 1))
        else
          Result.Error
            (Error.makef Error.Io Error.Io_failure "cannot connect: %s"
               (Unix.error_message err))
  in
  attempt 0

let send c payload = Protocol.output_frame c.oc payload
let flush c = Stdlib.flush c.oc

let recv c =
  match Protocol.Reader.next c.reader ~block:true with
  | `Frame payload -> Some payload
  | `Eof | `Pending -> None

let rpc c payload =
  send c payload;
  flush c;
  recv c

let close c = close_out_noerr c.oc

(** The client side of an [fds serve] connection: connect with retry,
    corked sends, and blocking receives over the one frame parser,
    {!Protocol.Reader}. [fds client], [fds monitor --subscribe] and
    replication followers all talk to a server through it. *)

open Fdbs_kernel

type t

val connect : ?retries:int -> Unix.sockaddr -> (t, Error.t) result
(** [connect ?retries addr] opens a stream connection to [addr]. A
    transient failure (connection refused or reset, a missing socket, an
    unreachable network, a broken pipe) is retried up to [retries] times
    (default 0). Retry [k] first sleeps 0.1 s·2{^k}, capped at 1 s, with
    ±25% jitter so racing clients do not reconnect in lockstep. Any other
    failure, or the last one, is an [Io_failure] error whose message reads
    ["cannot connect: <reason>"]. *)

val send : t -> string -> unit
(** Buffer a frame without writing it. *)

val flush : t -> unit
(** Write every buffered frame. Raises [Sys_error] if the peer has gone. *)

val recv : t -> string option
(** The next frame, waiting for it; [None] at the end of the stream.
    Raises {!Fdbs_kernel.Error.Error} on a malformed frame. *)

val rpc : t -> string -> string option
(** {!send}, {!flush}, then {!recv}: one request, one reply. *)

val close : t -> unit
(** Close the connection. Never raises. *)

(** A minimal JSON value type with a reader and a writer — just enough
    for the toolkit's machine-readable surfaces (the bench reports, the
    Chrome trace files, and the {e fds serve} wire protocol), avoiding
    any parsing dependency. Shared by the perf gate, the trace
    validator, and {!Fdbs_service}'s protocol. *)

type t =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of t list
  | Obj of (string * t) list
  | Deferred of (Buffer.t -> unit)
      (** A value rendered on demand: the writer calls the function
          with its output buffer, and the function must append exactly
          one JSON value ({!add_string} and {!add_int} render scalars
          byte-identically to the equivalent tree). Large documents
          stream this way instead of building a tree. It holds a
          closure, so polymorphic equality raises on it: compare
          renderings instead. The accessors below treat it as
          opaque. *)

exception Parse_error of string

(** Parse a complete JSON document; trailing input is an error. String
    escapes are decoded, [\uXXXX] (and surrogate pairs) to UTF-8, so
    every string {!to_string} writes parses back to itself. *)
val parse : string -> t

val parse_file : string -> t

(** [field name v] is the member [name] of the object [v], if any. *)
val field : string -> t -> t option

(** Convenience accessors used by protocol decoding; [None] on a type
    mismatch. *)
val to_string_opt : t -> string option

val to_bool_opt : t -> bool option
val to_int_opt : t -> int option
val to_list_opt : t -> t list option

(** Serialize deterministically: object members in the given order,
    integral floats without a fractional part, strings escaped per RFC
    8259 (control characters as [\uXXXX]). One line, no trailing
    newline. Renders into a buffer reused per domain, so the only
    allocation proportional to the document is the returned string. *)
val to_string : t -> string

(** [with_rendered v k] renders [v] as {!to_string} does into the
    per-domain buffer and passes that buffer to [k], so a caller can
    write the document out without copying it into a string. [k] must
    not keep the buffer: it is cleared and reused once [k] returns. The
    buffer is released to the next rendering on this domain even when
    rendering or [k] raises. *)
val with_rendered : t -> (Buffer.t -> 'a) -> 'a

(** [add_string buf s] appends [Str s] as {!to_string} renders it:
    quoted and escaped. *)
val add_string : Buffer.t -> string -> unit

(** [add_int buf n] appends [Num (float_of_int n)] as {!to_string}
    renders it, without allocating the float. *)
val add_int : Buffer.t -> int -> unit

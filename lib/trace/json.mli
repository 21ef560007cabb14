(** A small complete JSON reader and writer.

    The bench rows, the serve daemon's [Stats] reply and the Chrome trace
    export write through it; the bench's baseline gate and the tests read
    through it. Objects keep their field order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, without the quotes. Double quote
    and backslash get a backslash, newline becomes the two characters
    backslash-n and every other control byte a four-digit [u] escape.
    Other bytes, UTF-8 included, pass through. *)

val number : float -> string
(** Integral values below 10{^15} print as integers, others with 17
    significant digits, so {!parse} reads back the same float. Raises
    [Invalid_argument] on a non-finite value, which JSON cannot hold. *)

val to_string : t -> string
(** Compact rendering, no whitespace. *)

exception Error of string

val parse : string -> t
(** Reads exactly one value, surrounded only by whitespace. Raises
    {!Error} with an offset on malformed input or trailing characters. *)

val member : string -> t -> t option
(** The first field of that name of an object; [None] on other values. *)

val num : t option -> float option
val str : t option -> string option

val read_file : string -> t
(** {!parse} the whole file. *)

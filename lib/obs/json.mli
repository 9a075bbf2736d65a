(** The one JSON codec: a value tree, a whole-input parser, a compact
    printer, the string escaper every wire-format writer uses, and the field
    decoders every reader is built from.

    Readers of outside bytes (JSONL event traces, sampled-trace files, bench
    manifests and history files) all go through {!parse}, so they share one
    depth cap and one escape set.  Writers that keep a hand-tuned [Printf]
    layout still escape their strings with {!escape}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

val max_depth : int
(** Deepest container nesting {!parse} accepts (64).  Real inputs nest at
    most a handful of levels (manifests 3, span trees a dozen); the cap
    turns a hostile ["[[[[..."] into a {!Parse} error instead of a stack
    overflow. *)

val parse : string -> t
(** Whole-input parse (nested values, multi-line, surrounding whitespace
    allowed).  String escapes are the JSON set: a backslash before a
    quote, backslash, slash, [b], [f], [n], [r] or [t], and [uXXXX]
    (decoded to UTF-8; a UTF-16 surrogate is out of range).  @raise Parse
    on malformed input, a malformed or out-of-range [\u] escape, trailing
    garbage, or nesting deeper than {!max_depth} — never any other
    exception. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): a quote or
    backslash gets a backslash before it, bytes below [0x20] become
    [u00XX] after a backslash, everything else passes through.  {!parse}
    inverts it. *)

val to_string : t -> string
(** Compact single-line rendering; integers print without a decimal
    point.  [parse (to_string t)] is [t] up to float formatting. *)

val member : string -> t -> t option
(** Field lookup, [None] on non-objects. *)

(** {1 Decoders}

    Total: an ill-shaped value comes back as [Error msg], never an
    exception. *)

type 'a decoder = t -> ('a, string) result

val decode : 'a decoder -> string -> ('a, string) result
(** [decode d s] is [d (parse s)], with a {!Parse} failure as [Error]. *)

val str : string decoder
val num : float decoder

val int : int decoder
(** A number with no fractional part that fits an [int]; [1.5] is an
    error, not [1]. *)

val bool : bool decoder
val list : 'a decoder -> 'a list decoder

val field : ?default:'a -> string -> 'a decoder -> 'a decoder
(** [field name d] decodes member [name] of an object with [d]; a missing
    member is [default] when given, an error otherwise.  Errors name the
    field. *)

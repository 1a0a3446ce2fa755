(** A small HTML toolkit: one lexer, a streaming scanner with forgiving
    recovery, a tree parser on top of it, DOM queries and a printer.
    Covers the subset the site generators emit plus common 1998-era
    laxities (unquoted attributes, void elements, implicit closes).

    Every consumer reads a body through the same lexer: {!tokenize}
    collects its tokens, {!scan} applies the recovery rules to them and
    reports the tree as events without building it, and {!parse} builds
    the tree from those events. Wrappers extract straight from {!scan}. *)

type attrs = (string * string) list

type node =
  | Element of string * attrs * node list
  | Text of string
  | Comment of string

type doc = node list

exception Parse_error of string

val escape : string -> string
val unescape : string -> string

val unescape_into : Buffer.t -> string -> int -> int -> unit
(** [unescape_into buf s pos len] appends the unescaped slice of [s]
    to [buf]: [unescape (String.sub s pos len)] without the copy. *)

(** Tokenizer (exposed for tests). *)

type token =
  | Tok_open of string * attrs * bool  (** name, attrs, self-closing *)
  | Tok_close of string
  | Tok_text of string
  | Tok_comment of string
  | Tok_doctype of string

val tokenize : string -> token list
(** Raises {!Parse_error} on an unterminated tag, attribute value,
    comment or doctype and on a malformed close tag. *)

(** Streaming scanner. *)

type handler = {
  enter : string -> attrs -> unit;  (** element name (lowercased), attributes *)
  leave : unit -> unit;  (** closes the innermost entered element *)
  text : string -> int -> int -> unit;
      (** [text s pos len]: a text node, as the still-escaped slice of
          the input [s]; whitespace-only text is not reported *)
  comment : string -> int -> int -> unit;  (** [comment s pos len]: the comment's body *)
}

val scan : handler -> string -> unit
(** Reports the body as balanced events, exactly the pre-order walk of
    the tree {!parse} returns, in one pass and without building it.
    Recovery rules: a void or self-closing element enters and leaves at
    once; a close tag with no open element of its name is dropped; a
    close tag closes the elements opened inside its element; an [li]
    start tag closes an open [li] up to the nearest enclosing
    [ul]/[ol]; end of input closes everything still open. Raises
    {!Parse_error} as {!tokenize} does, possibly after some events. *)

val parse : string -> doc
(** The tree of {!scan}'s events. Never raises on well-nested input. *)

val to_string : doc -> string
val doc_to_string : ?title:string -> doc -> string
(** Wraps a body in [<!DOCTYPE html><html><head>…</head><body>…]. *)

(** Queries. *)

val tag : node -> string option
val children : node -> node list
val attr : string -> node -> string option
val classes : node -> string list
val has_class : string -> node -> bool
val inner_text : node -> string
val find_all : (node -> bool) -> doc -> node list
val find_first : (node -> bool) -> doc -> node option
val by_tag : string -> doc -> node list
val by_class : string -> doc -> node list
val by_tag_class : string -> string -> doc -> node list
val node_count : doc -> int

(** Hash tables keyed by strings: [String.equal] instead of the
    polymorphic compare of the generic [Hashtbl], with the same
    [Hashtbl.hash], so buckets, resizing and iteration order are
    exactly those of a generic table fed the same keys. *)

include Hashtbl.S with type key = string

(* A small but real HTML toolkit: tokenizer, tree parser, DOM queries
   and a printer. It covers the HTML subset the site generators emit
   and is forgiving about the constructs 1998-era pages actually used:
   unquoted attribute values, void elements, comments, entities. *)

type attrs = (string * string) list

type node =
  | Element of string * attrs * node list
  | Text of string
  | Comment of string

type doc = node list

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let entity = function
  | "amp" -> Some "&"
  | "lt" -> Some "<"
  | "gt" -> Some ">"
  | "quot" -> Some "\""
  | "apos" -> Some "'"
  | "nbsp" -> Some " "
  | e ->
    if String.length e > 1 && e.[0] = '#' then
      match int_of_string_opt (String.sub e 1 (String.length e - 1)) with
      | Some code when code >= 0 && code < 128 -> Some (String.make 1 (Char.chr code))
      | _ -> None
    else None

(* First index of [c] in [s] within [i, j), or -1. *)
let rec index_in s c i j = if i >= j then -1 else if s.[i] = c then i else index_in s c (i + 1) j

(* Whether a character of [s] within [i, j) satisfies [p]. *)
let rec exists_in p s i j = i < j && (p s.[i] || exists_in p s (i + 1) j)

(* An entity is "&name;" with at most seven characters between the
   '&' and the ';'; anything else, unknown names included, stays
   literal. *)
let unescape_into buf s pos len =
  let stop = pos + len in
  let rec go i =
    if i < stop then
      if s.[i] = '&' then begin
        let j = index_in s ';' (i + 1) (min stop (i + 9)) in
        match if j < 0 then None else entity (String.sub s (i + 1) (j - i - 1)) with
        | Some repl ->
          Buffer.add_string buf repl;
          go (j + 1)
        | None ->
          Buffer.add_char buf '&';
          go (i + 1)
      end
      else begin
        let k = match index_in s '&' i stop with -1 -> stop | k -> k in
        Buffer.add_substring buf s i (k - i);
        go k
      end
  in
  go pos

(* [String.sub s pos len], unescaped; only a slice holding a '&' pays
   for a buffer. *)
let sub_unescaped s pos len =
  if index_in s '&' pos (pos + len) >= 0 then begin
    let buf = Buffer.create len in
    unescape_into buf s pos len;
    Buffer.contents buf
  end
  else String.sub s pos len

let unescape s = sub_unescaped s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tok_open of string * attrs * bool (* name, attrs, self-closing *)
  | Tok_close of string
  | Tok_text of string
  | Tok_comment of string
  | Tok_doctype of string

exception Parse_error of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_upper c = c >= 'A' && c <= 'Z'

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

let is_void = function
  | "br" | "hr" | "img" | "input" | "meta" | "link" | "area" | "base" | "col" | "embed"
  | "source" | "wbr" ->
    true
  | _ -> false

(* The one lexer: reports the tokens of [input] in order. Tag and
   attribute names arrive lowercased and attribute values unescaped;
   text, comments and doctypes arrive as raw (pos, len) slices of
   [input], and a text slice is reported only when it holds a
   non-space character. Raises [Parse_error] on a tag, attribute value,
   comment or doctype left unterminated, and on a malformed close tag. *)
let lex ~on_open ~on_close ~on_text ~on_comment ~on_doctype input =
  let n = String.length input in
  let rec skip_space i = if i < n && is_space input.[i] then skip_space (i + 1) else i in
  let rec name_end i = if i < n && is_name_char input.[i] then name_end (i + 1) else i in
  let rec find c i = if i < n && input.[i] <> c then find c (i + 1) else i in
  let name_at i j =
    let s = String.sub input i (j - i) in
    if exists_in is_upper input i j then String.lowercase_ascii s else s
  in
  (* reports the open tag [name] whose attributes start at [i];
     returns the position after its '>' *)
  let rec read_attrs name i acc =
    let i = skip_space i in
    if i >= n then raise (Parse_error "unterminated tag")
    else if input.[i] = '>' then begin
      on_open name (List.rev acc) false;
      i + 1
    end
    else if input.[i] = '/' && i + 1 < n && input.[i + 1] = '>' then begin
      on_open name (List.rev acc) true;
      i + 2
    end
    else begin
      let j = name_end i in
      if j = i then raise (Parse_error "bad attribute name");
      let attr = name_at i j in
      let j = skip_space j in
      if j < n && input.[j] = '=' then begin
        let k = skip_space (j + 1) in
        if k < n && (input.[k] = '"' || input.[k] = '\'') then begin
          let e = find input.[k] (k + 1) in
          if e >= n then raise (Parse_error "unterminated attribute value");
          read_attrs name (e + 1) ((attr, sub_unescaped input (k + 1) (e - k - 1)) :: acc)
        end
        else begin
          let rec unquoted e =
            if e < n && (not (is_space input.[e])) && input.[e] <> '>' then unquoted (e + 1) else e
          in
          let e = unquoted k in
          read_attrs name e ((attr, sub_unescaped input k (e - k)) :: acc)
        end
      end
      else read_attrs name j ((attr, "") :: acc)
    end
  in
  let rec go i =
    if i >= n then ()
    else if input.[i] = '<' then begin
      if i + 3 < n && input.[i + 1] = '!' && input.[i + 2] = '-' && input.[i + 3] = '-' then begin
        let rec close j =
          if j + 2 >= n then raise (Parse_error "unterminated comment")
          else if input.[j] = '-' && input.[j + 1] = '-' && input.[j + 2] = '>' then j
          else close (j + 1)
        in
        let c = close (i + 4) in
        on_comment (i + 4) (c - i - 4);
        go (c + 3)
      end
      else if i + 1 < n && input.[i + 1] = '!' then begin
        let j = find '>' i in
        if j >= n then raise (Parse_error "unterminated doctype");
        on_doctype (i + 2) (j - i - 2);
        go (j + 1)
      end
      else if i + 1 < n && input.[i + 1] = '/' then begin
        let j = name_end (i + 2) in
        let name = name_at (i + 2) j in
        let k = skip_space j in
        if k < n && input.[k] = '>' then begin
          on_close name;
          go (k + 1)
        end
        else raise (Parse_error ("bad close tag </" ^ name))
      end
      else begin
        let j = name_end (i + 1) in
        if j = i + 1 then begin
          (* a lone '<' in text *)
          on_text i 1;
          go (i + 1)
        end
        else go (read_attrs (name_at (i + 1) j) j [])
      end
    end
    else begin
      let next = find '<' i in
      if exists_in (fun c -> not (is_space c)) input i next then on_text i (next - i);
      go next
    end
  in
  go 0

let tokenize input =
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  lex input
    ~on_open:(fun name attrs self -> emit (Tok_open (name, attrs, self)))
    ~on_close:(fun name -> emit (Tok_close name))
    ~on_text:(fun pos len -> emit (Tok_text (sub_unescaped input pos len)))
    ~on_comment:(fun pos len -> emit (Tok_comment (String.sub input pos len)))
    ~on_doctype:(fun pos len -> emit (Tok_doctype (String.sub input pos len)));
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Scanner: the lexer plus the recovery rules                          *)
(* ------------------------------------------------------------------ *)

type handler = {
  enter : string -> attrs -> unit;
  leave : unit -> unit;
  text : string -> int -> int -> unit;
  comment : string -> int -> int -> unit;
}

(* Replays [input] as the pre-order walk of its tree, recovering as
   browsers do: a void or self-closing element enters and leaves at
   once; a close tag leaves every element opened inside the nearest
   open element of its name, and is dropped when there is none; an
   [li] start tag closes an open [li] up to the nearest enclosing
   [ul]/[ol]; end of input leaves everything still open. *)
let scan h input =
  let open_ = ref [] in
  let rec close_through name =
    match !open_ with
    | top :: rest ->
      open_ := rest;
      h.leave ();
      if not (String.equal top name) then close_through name
    | [] -> ()
  in
  let rec li_open = function
    | "li" :: _ -> true
    | ("ul" | "ol") :: _ | [] -> false
    | _ :: rest -> li_open rest
  in
  lex input
    ~on_open:(fun name attrs self ->
      if String.equal name "li" && li_open !open_ then close_through "li";
      h.enter name attrs;
      if self || is_void name then h.leave () else open_ := name :: !open_)
    ~on_close:(fun name -> if List.exists (String.equal name) !open_ then close_through name)
    ~on_text:(fun pos len -> h.text input pos len)
    ~on_comment:(fun pos len -> h.comment input pos len)
    ~on_doctype:(fun _ _ -> ());
  List.iter (fun _ -> h.leave ()) !open_

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type open_element = { name : string; attrs : attrs; mutable rev_children : node list }

let parse input =
  let root = { name = ""; attrs = []; rev_children = [] } in
  let stack = ref [ root ] in
  let add node =
    match !stack with e :: _ -> e.rev_children <- node :: e.rev_children | [] -> ()
  in
  scan
    {
      enter = (fun name attrs -> stack := { name; attrs; rev_children = [] } :: !stack);
      leave =
        (fun () ->
          match !stack with
          | e :: (_ :: _ as rest) ->
            stack := rest;
            add (Element (e.name, e.attrs, List.rev e.rev_children))
          | _ -> ());
      text = (fun s pos len -> add (Text (sub_unescaped s pos len)));
      comment = (fun s pos len -> add (Comment (String.sub s pos len)));
    }
    input;
  List.rev root.rev_children

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let rec print_node buf = function
  | Text t -> Buffer.add_string buf (escape t)
  | Comment c ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf c;
    Buffer.add_string buf "-->"
  | Element (name, attrs, children) ->
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    List.iter
      (fun (a, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf a;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape v);
        Buffer.add_char buf '"')
      attrs;
    if is_void name && children = [] then Buffer.add_string buf ">"
    else begin
      Buffer.add_char buf '>';
      List.iter (print_node buf) children;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end

let to_string nodes =
  let buf = Buffer.create 1024 in
  List.iter (print_node buf) nodes;
  Buffer.contents buf

let doc_to_string ?(title = "") body =
  let head = Element ("head", [], [ Element ("title", [], [ Text title ]) ]) in
  let html = Element ("html", [], [ head; Element ("body", [], body) ]) in
  "<!DOCTYPE html>" ^ to_string [ html ]

(* ------------------------------------------------------------------ *)
(* DOM queries                                                         *)
(* ------------------------------------------------------------------ *)

let tag = function Element (n, _, _) -> Some n | Text _ | Comment _ -> None
let children = function Element (_, _, c) -> c | Text _ | Comment _ -> []
let attr name = function
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ | Comment _ -> None

let classes node =
  match attr "class" node with
  | Some c -> String.split_on_char ' ' c |> List.filter (fun s -> s <> "")
  | None -> []

let has_class c node = List.mem c (classes node)

let rec inner_text node =
  match node with
  | Text t -> t
  | Comment _ -> ""
  | Element (_, _, children) -> String.concat "" (List.map inner_text children)

(* Depth-first search over a node list. *)
let rec find_all pred nodes =
  List.concat_map
    (fun node ->
      let here = if pred node then [ node ] else [] in
      here @ find_all pred (children node))
    nodes

let find_first pred nodes =
  match find_all pred nodes with [] -> None | node :: _ -> Some node

let by_tag name nodes =
  find_all (fun node -> match tag node with Some t -> String.equal t name | None -> false) nodes

let by_class c nodes = find_all (has_class c) nodes

let by_tag_class name c nodes =
  find_all
    (fun node ->
      (match tag node with Some t -> String.equal t name | None -> false) && has_class c node)
    nodes

let node_count nodes =
  let rec count node =
    1 + List.fold_left (fun acc child -> acc + count child) 0 (children node)
  in
  List.fold_left (fun acc node -> acc + count node) 0 nodes

let pp ppf nodes = Fmt.string ppf (to_string nodes)

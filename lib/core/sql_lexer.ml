(* Lexer for the SQL subset accepted by {!Sql_parser}. *)

type token =
  | SELECT
  | FROM
  | WHERE
  | AND
  | AS
  | STAR
  | COMMA
  | DOT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | LPAREN
  | RPAREN
  | IDENT of string
  | STRING of string
  | NUMBER of int
  | EOF

exception Lex_error of string

let keyword_of_string s =
  match String.uppercase_ascii s with
  | "SELECT" -> Some SELECT
  | "FROM" -> Some FROM
  | "WHERE" -> Some WHERE
  | "AND" -> Some AND
  | "AS" -> Some AS
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let rec go i =
    if i >= n then ()
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | ',' ->
        emit COMMA;
        go (i + 1)
      | '.' ->
        emit DOT;
        go (i + 1)
      | '*' ->
        emit STAR;
        go (i + 1)
      | '(' ->
        emit LPAREN;
        go (i + 1)
      | ')' ->
        emit RPAREN;
        go (i + 1)
      | '=' ->
        emit EQ;
        go (i + 1)
      | '<' ->
        if i + 1 < n && input.[i + 1] = '>' then begin
          emit NEQ;
          go (i + 2)
        end
        else if i + 1 < n && input.[i + 1] = '=' then begin
          emit LE;
          go (i + 2)
        end
        else begin
          emit LT;
          go (i + 1)
        end
      | '>' ->
        if i + 1 < n && input.[i + 1] = '=' then begin
          emit GE;
          go (i + 2)
        end
        else begin
          emit GT;
          go (i + 1)
        end
      | '!' when i + 1 < n && input.[i + 1] = '=' ->
        emit NEQ;
        go (i + 2)
      | '\'' -> (
        match String.index_from_opt input (i + 1) '\'' with
        | Some j ->
          emit (STRING (String.sub input (i + 1) (j - i - 1)));
          go (j + 1)
        | None -> raise (Lex_error "unterminated string literal"))
      | c when is_digit c ->
        let rec stop j = if j < n && is_digit input.[j] then stop (j + 1) else j in
        let j = stop i in
        let digits = String.sub input i (j - i) in
        (match int_of_string_opt digits with
        | Some v -> emit (NUMBER v)
        | None ->
          raise
            (Lex_error
               (Fmt.str "integer literal %s at offset %d is out of range" digits i)));
        go j
      | c when is_ident_start c ->
        let rec stop j = if j < n && is_ident_char input.[j] then stop (j + 1) else j in
        let j = stop i in
        let word = String.sub input i (j - i) in
        (match keyword_of_string word with
        | Some kw -> emit kw
        | None -> emit (IDENT word));
        go j
      | c -> raise (Lex_error (Fmt.str "unexpected character %C at offset %d" c i))
  in
  go 0;
  List.rev (EOF :: !tokens)

let pp_token ppf = function
  | SELECT -> Fmt.string ppf "SELECT"
  | FROM -> Fmt.string ppf "FROM"
  | WHERE -> Fmt.string ppf "WHERE"
  | AND -> Fmt.string ppf "AND"
  | AS -> Fmt.string ppf "AS"
  | STAR -> Fmt.string ppf "*"
  | COMMA -> Fmt.string ppf ","
  | DOT -> Fmt.string ppf "."
  | EQ -> Fmt.string ppf "="
  | NEQ -> Fmt.string ppf "<>"
  | LT -> Fmt.string ppf "<"
  | LE -> Fmt.string ppf "<="
  | GT -> Fmt.string ppf ">"
  | GE -> Fmt.string ppf ">="
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | IDENT s -> Fmt.pf ppf "ident:%s" s
  | STRING s -> Fmt.pf ppf "'%s'" s
  | NUMBER i -> Fmt.int ppf i
  | EOF -> Fmt.string ppf "<eof>"

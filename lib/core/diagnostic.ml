(* Structured diagnostics for the static analyzer: every finding
   carries a stable code (E01xx NALG typing, E02xx schema lint, E03xx
   query lint, E04xx planner/rewrite soundness, E05xx view registry),
   a severity, a human message, and a path of steps into the offending
   expression tree so Explain can point at the operator. *)

type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  message : string;
  path : string list;
      (* steps from the root of the analyzed expression to the node the
         diagnostic is about: "select" | "project" | "join.left" |
         "join.right" | "unnest" | "follow"; [] = the root / no
         expression context (schema and query lints) *)
}

let v ?(path = []) severity code message = { code; severity; message; path }

let error ?path ~code fmt = Fmt.kstr (fun m -> v ?path Error code m) fmt
let warning ?path ~code fmt = Fmt.kstr (fun m -> v ?path Warning code m) fmt

let is_error d = d.severity = Error
let is_warning d = d.severity = Warning
let errors ds = List.filter is_error ds
let warnings ds = List.filter is_warning ds
let has_errors ds = List.exists is_error ds

(* Errors sort before warnings; within a severity, by code then
   message, so reports are stable regardless of discovery order. *)
let compare d1 d2 =
  let sev = function Error -> 0 | Warning -> 1 in
  match Stdlib.compare (sev d1.severity) (sev d2.severity) with
  | 0 -> (
    match String.compare d1.code d2.code with
    | 0 -> String.compare d1.message d2.message
    | c -> c)
  | c -> c

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"

let pp_path ppf = function
  | [] -> ()
  | path -> Fmt.pf ppf " at %s" (String.concat "/" path)

let pp ppf d =
  Fmt.pf ppf "%a[%s]%a: %s" pp_severity d.severity d.code pp_path d.path
    d.message

let to_string d = Fmt.str "%a" pp d

let summary ds =
  Fmt.str "%d error(s), %d warning(s)"
    (List.length (errors ds))
    (List.length (warnings ds))

(* Drop repeated findings: several analysis passes (or several rewrite
   judgments) can surface the same code at the same node with the same
   message. First occurrence wins, order otherwise preserved. *)
let dedup ds =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun d ->
      let k = (d.code, d.path, d.message) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    ds

let exit_code ?(strict = false) ds =
  if has_errors ds then 2 else if strict && ds <> [] then 1 else 0

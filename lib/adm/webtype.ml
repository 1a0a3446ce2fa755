(* Web types of the ADM subset (Section 3.1 of the paper): base types,
   links to page-schemes, and (possibly nested) lists of tuples. *)

type t =
  | Text
  | Int
  | Image
  | Link of string (* name of the target page-scheme *)
  | List of (string * t) list

let rec pp ppf = function
  | Text -> Fmt.string ppf "text"
  | Int -> Fmt.string ppf "int"
  | Image -> Fmt.string ppf "image"
  | Link p -> Fmt.pf ppf "link to %s" p
  | List fields ->
    let pp_field ppf (a, ty) = Fmt.pf ppf "%s : %a" a pp ty in
    Fmt.pf ppf "list of (@[%a@])" (Fmt.list ~sep:Fmt.comma pp_field) fields

let to_string ty = Fmt.str "%a" pp ty

let is_mono = function Text | Int | Image | Link _ -> true | List _ -> false
let is_multi ty = not (is_mono ty)

let link_target = function Link p -> Some p | Text | Int | Image | List _ -> None

(* Comparability for predicates and join keys. Images are represented
   as text (source paths), so the two compare; links compare with
   links regardless of target (URL equality is meaningful across
   page-schemes); lists are compatible field-wise. *)
let rec compatible t1 t2 =
  match t1, t2 with
  | (Text | Image), (Text | Image) -> true
  | Int, Int -> true
  | Link _, Link _ -> true
  | List f1, List f2 ->
    List.length f1 = List.length f2
    && List.for_all2
         (fun (a1, x1) (a2, x2) -> String.equal a1 a2 && compatible x1 x2)
         f1 f2
  | (Text | Int | Image | Link _ | List _), _ -> false

(* The web type a constant value inhabits, for static predicate
   typing. [Link ""] stands for "a link to an unknown page-scheme";
   use {!compatible}, not {!equal}, on the result. Null and booleans
   carry no type information. *)
let of_value : Value.t -> t option = function
  | Value.Null | Value.Bool _ -> None
  | Value.Int _ -> Some Int
  | Value.Text _ -> Some Text
  | Value.Link _ -> Some (Link "")
  | Value.Rows _ -> Some (List [])

(* Structural validation of a value against a type. Null is accepted
   everywhere; optionality is enforced at the page-scheme level. *)
let rec accepts ty (v : Value.t) =
  match ty, v with
  | _, Value.Null -> true
  | Text, Value.Text _ -> true
  | Int, Value.Int _ -> true
  | Image, Value.Text _ -> true (* image = source path, modeled as text *)
  | Link _, Value.Link _ -> true
  | List fields, Value.Rows rows -> List.for_all (accepts_tuple fields) rows
  | (Text | Int | Image | Link _ | List _), _ -> false

and accepts_tuple fields tuple =
  List.for_all
    (fun (a, ty) ->
      match Value.find tuple a with Some v -> accepts ty v | None -> false)
    fields
  && List.for_all (fun (a, _) -> List.mem_assoc a fields) tuple

(* Resolve a dotted path of attribute names inside a type. The first
   step is resolved against [fields]; list types are traversed
   implicitly (a path enters the element tuple of a list). *)
let rec resolve_in_fields fields = function
  | [] -> None
  | [ step ] -> List.assoc_opt step fields
  | step :: rest -> (
    match List.assoc_opt step fields with
    | Some (List inner) -> resolve_in_fields inner rest
    | Some (Text | Int | Image | Link _) | None -> None)

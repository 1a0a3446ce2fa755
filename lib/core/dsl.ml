(* A Ulixes-flavoured builder for navigation expressions.

   Raw NALG requires fully-qualified attribute names
   ("ProfPage.CourseList.ToCourse"); the builder tracks the current
   qualification prefix (the page occurrence, extended by dives into
   nested lists) so navigations read like the paper's path notation:

     start "ProfListPage"
     |> dive "ProfList"
     |> follow "ToProf" ~scheme:"ProfPage"
     |> where_eq "Rank" (Adm.Value.Text "Full")
     |> dive "CourseList"
     |> follow "ToCourse" ~scheme:"CoursePage"
     |> keep [ "CName"; "Description" ]
     |> finish                                                     *)

type t = {
  expr : Nalg.expr;
  cursor : string; (* current attribute-qualification prefix *)
}

(* Enter the site at an entry point. *)
let start ?alias scheme =
  let alias = Option.value alias ~default:scheme in
  { expr = Nalg.entry ~alias scheme; cursor = alias }

(* Resolve a cursor-relative attribute name; names containing the
   current prefix already, or another occurrence's prefix (detected by
   a dot), pass through unchanged. *)
let resolve nav name =
  if String.contains name '.' then name else nav.cursor ^ "." ^ name

(* ◦ — unnest a nested list and move the cursor into it. *)
let dive name nav =
  let attr = resolve nav name in
  { expr = Nalg.unnest nav.expr attr; cursor = attr }

(* → — follow a link attribute; the cursor moves to the target pages. *)
let follow ?alias name ~scheme nav =
  let alias = Option.value alias ~default:scheme in
  { expr = Nalg.follow ~alias nav.expr (resolve nav name) ~scheme; cursor = alias }

(* σ with an arbitrary predicate over cursor-relative names. *)
let where atoms nav =
  let qualified =
    List.map
      (fun (a : Pred.atom) ->
        let fix = function
          | Pred.Attr attr -> Pred.Attr (resolve nav attr)
          | Pred.Const _ as c -> c
        in
        { a with Pred.left = fix a.Pred.left; right = fix a.Pred.right })
      atoms
  in
  { nav with expr = Nalg.select qualified nav.expr }

let where_eq name value nav = where [ Pred.eq_const name value ] nav

(* π over cursor-relative (or fully-qualified) names. *)
let keep names nav =
  { nav with expr = Nalg.project (List.map (resolve nav) names) nav.expr }

(* Join two navigations on cursor-relative key pairs. The left
   navigation's cursor survives. *)
let join_on keys left right =
  let keys =
    List.map (fun (a, b) -> (resolve left a, resolve right b)) keys
  in
  { left with expr = Nalg.join keys left.expr right.expr }

let expr nav = nav.expr
let finish = expr
let cursor nav = nav.cursor

(* The qualified name of a cursor-relative attribute, for use in
   predicates or projections outside the builder. *)
let attr nav name = resolve nav name

(* The paper's introduction, reproduced end to end: four ways to
   answer "find all authors who had papers in the last three VLDB
   conferences" over a DBLP-like bibliography site, with wildly
   different network costs.

   Run with:  dune exec examples/intro_bibliography.exe *)

open Webviews

let authors_by_year rel ~name_attr ~year_attr =
  (* (author, year) pairs from an evaluated navigation *)
  Adm.Relation.rows rel
  |> List.filter_map (fun t ->
         match Adm.Value.find t name_attr, Adm.Value.find t year_attr with
         | Some (Adm.Value.Text a), Some (Adm.Value.Int y) -> Some (Adm.Value.Atom.str a, y)
         | _ -> None)
  |> List.sort_uniq compare

let regulars pairs years =
  (* authors present in every given year *)
  let authors_of y = List.filter_map (fun (a, y') -> if y = y' then Some a else None) pairs in
  match years with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun acc y -> List.filter (fun a -> List.mem a (authors_of y)) acc)
      (authors_of first) rest

let () =
  let bib = Sitegen.Bibliography.build () in
  let { Sitegen.Sites.schema; site; _ } = Sitegen.Sites.of_bibliography bib in
  let years = Sitegen.Bibliography.last_vldb_years bib 3 in
  Fmt.pr "Site: %d pages. Last three VLDB editions: %a@.@."
    (Websim.Site.page_count site)
    Fmt.(list ~sep:comma int)
    years;

  let run name expr ~name_attr ~year_attr =
    let http = Websim.Http.connect site in
    let source = Eval.live_source schema http in
    let rel = Eval.eval schema source expr in
    let pairs = authors_by_year rel ~name_attr ~year_attr in
    let in_all_three =
      regulars pairs years |> List.sort_uniq String.compare
    in
    let s = Websim.Http.stats http in
    Fmt.pr "%-40s %4d pages  %7d bytes  answer: %a@." name s.Websim.Http.gets
      s.Websim.Http.bytes
      Fmt.(list ~sep:comma string)
      in_all_three
  in
  let a = "EditionPage.PaperList.AuthorList.AName" in
  let y = "EditionPage.Year" in
  run "1. home → conference list → VLDB"
    (Sitegen.Bibliography.path1_all_conferences ())
    ~name_attr:a ~year_attr:y;
  run "2. home → DB conference list → VLDB"
    (Sitegen.Bibliography.path2_db_conferences ())
    ~name_attr:a ~year_attr:y;
  run "3. home → VLDB (direct link)"
    (Sitegen.Bibliography.path3_direct_link ())
    ~name_attr:a ~year_attr:y;
  run "4. home → author list → every author"
    (Sitegen.Bibliography.path4_via_authors ())
    ~name_attr:"AuthorPage.AName" ~year_attr:"AuthorPage.PubList.Year";
  Fmt.pr
    "@.All four navigations answer the query; the last one downloads one@.";
  Fmt.pr "page per author — the cost gap a Web query optimizer must avoid.@."

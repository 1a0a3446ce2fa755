type kind = University | Bibliography | Catalog | Formsite

let name = function
  | University -> "university"
  | Bibliography -> "bibliography"
  | Catalog -> "catalog"
  | Formsite -> "formsite"

let all = [ University; Bibliography; Catalog; Formsite ]
let names = List.map name all

let of_name s =
  match List.find_opt (fun k -> name k = s) all with
  | Some k -> Ok k
  | None -> Error (Fmt.str "unknown site %S (%s)" s (String.concat "|" names))

type size = { depts : int; profs : int; courses : int; seed : int }

let default_size = { depts = 3; profs = 20; courses = 50; seed = 42 }

type t = {
  kind : kind;
  schema : Adm.Schema.t;
  registry : Webviews.View.registry;
  site : Websim.Site.t;
  stats : Webviews.Stats.t Lazy.t;
  binding_config : Bindings.config option;
}

let crawl_site schema site = Websim.Crawler.crawl schema (Websim.Http.connect site)
let crawl t = crawl_site t.schema t.site

let crawled kind schema registry site =
  {
    kind;
    schema;
    registry;
    site;
    stats = lazy (Webviews.Stats.of_instance (crawl_site schema site));
    binding_config = None;
  }

let of_university uni =
  crawled University University.schema University.view (University.site uni)

(* no hand-written view for this site: derive one automatically *)
let of_bibliography bib =
  crawled Bibliography Bibliography.schema
    (Webviews.View.auto_registry Bibliography.schema)
    (Bibliography.site bib)

let of_catalog cat = crawled Catalog Catalog.schema Catalog.view (Catalog.site cat)

(* form-only sites cannot be crawled: statistics are declared *)
let of_formsite fs =
  {
    kind = Formsite;
    schema = Formsite.schema;
    registry = Formsite.view;
    site = Formsite.site fs;
    stats = lazy (Formsite.stats fs);
    binding_config = Some Formsite.binding_config;
  }

let load ?(size = default_size) = function
  | University ->
    of_university
      (University.build
         ~config:
           {
             University.default_config with
             n_depts = size.depts;
             n_profs = size.profs;
             n_courses = size.courses;
             seed = size.seed;
           }
         ())
  | Bibliography -> of_bibliography (Bibliography.build ())
  | Catalog -> of_catalog (Catalog.build ())
  | Formsite ->
    of_formsite
      (Formsite.build
         ~config:
           {
             Formsite.seed = size.seed;
             n_depts = size.depts;
             n_profs = size.profs;
             n_courses = size.courses;
           }
         ())

let stats t = Lazy.force t.stats

let bindings t =
  Option.map (fun c -> Bindings.planner_hook c t.schema) t.binding_config

let binding_lint t q =
  match t.binding_config with
  | None -> []
  | Some c -> Bindings.lint c t.schema q

let viewstore t =
  Webviews.Viewstore.create t.schema t.registry
    (Webviews.Matview.materialize t.schema (Websim.Http.connect t.site))

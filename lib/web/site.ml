(* An in-memory web site: the remote, autonomous data source of the
   paper. Pages are HTML strings keyed by URL, each carrying a
   Last-Modified timestamp driven by a simulated clock. The site is
   mutable — the site manager "inserts, deletes and modifies pages
   without notifying remote users" — which is exactly what the
   materialized-view experiments need. *)

module Tbl = Adm.String_tbl

type page = { body : string; last_modified : int }

type t = {
  mutable pages : page Tbl.t;
  mutable clock : int;
  mutable revision : int; (* bumped on every mutation, for tests *)
}

let create () = { pages = Tbl.create 256; clock = 0; revision = 0 }

let clock site = site.clock
let tick ?(by = 1) site = site.clock <- site.clock + by

let page_count site = Tbl.length site.pages

let urls site =
  Tbl.fold (fun url _ acc -> url :: acc) site.pages []
  |> List.sort String.compare

let mem site url = Tbl.mem site.pages url
let find site url = Tbl.find_opt site.pages url

let put site ~url ~body =
  site.revision <- site.revision + 1;
  Tbl.replace site.pages url { body; last_modified = site.clock }

let delete site url =
  site.revision <- site.revision + 1;
  Tbl.remove site.pages url

let touch site url =
  match Tbl.find_opt site.pages url with
  | Some page ->
    site.revision <- site.revision + 1;
    Tbl.replace site.pages url { page with last_modified = site.clock }
  | None -> ()

(* Rewrite a page in place with an HTML-level edit function; bumps the
   Last-Modified date. Returns false when the URL does not exist. *)
let edit site url f =
  match Tbl.find_opt site.pages url with
  | Some page ->
    site.revision <- site.revision + 1;
    Tbl.replace site.pages url { body = f page.body; last_modified = site.clock };
    true
  | None -> false

let total_bytes site =
  Tbl.fold (fun _ page acc -> acc + String.length page.body) site.pages 0

let revision site = site.revision

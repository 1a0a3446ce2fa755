(** A product-catalog site family: every product is reachable both
    through its category and through its brand (an equivalence of link
    paths), products carry an integer price for range selections, and
    the category/brand fanouts are asymmetric — stressing the
    optimizer's entry-point choice. *)

type config = {
  seed : int;
  n_categories : int;
  n_brands : int;
  n_products : int;
  max_price : int;
}

val default_config : config

type product = {
  p_name : string;
  price : int;
  category : string;
  brand : string;
  description : string;
}

type t

val schema : Adm.Schema.t
val view : Webviews.View.registry
(** Product (2 default navigations: by category, by brand), Category,
    Brand. *)

val build : ?config:config -> unit -> t
val site : t -> Websim.Site.t
val products : t -> product list
val categories : t -> string list
val brands : t -> string list

val reprice : t -> p_name:string -> price:int -> bool
(** Change one product's price (touches only its page). *)


//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the shim `serde` crate's `to_value`/`from_value` model, by hand-parsing
//! the item's token stream (the environment has no syn/quote). Supported
//! shapes — everything this workspace derives on:
//!
//! * structs with named fields;
//! * tuple structs (newtype structs serialize transparently, wider ones as
//!   arrays);
//! * unit structs;
//! * enums with unit, tuple, and struct variants, in serde's
//!   externally-tagged representation.
//!
//! The one `#[serde(...)]` attribute understood is `deny_unknown_fields`
//! on a struct with named fields: deserializing an object with a key that
//! names no field is then an error, as with real serde. Generic types and
//! every other `#[serde(...)]` attribute are intentionally not supported;
//! the derive fails loudly if it meets one.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        shape: Shape,
        deny_unknown_fields: bool,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn is_punct(tt: &TokenTree, ch: char) -> bool {
    matches!(tt, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tt: &TokenTree, s: &str) -> bool {
    matches!(tt, TokenTree::Ident(i) if i.to_string() == s)
}

/// The words inside a `#[serde(...)]` attribute's brackets; none for any
/// other attribute.
fn serde_words(attr: &TokenTree) -> Vec<String> {
    let TokenTree::Group(g) = attr else {
        return Vec::new();
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    match inner.as_slice() {
        [name, TokenTree::Group(args)] if is_ident(name, "serde") => args
            .stream()
            .into_iter()
            .filter(|tt| !is_punct(tt, ','))
            .map(|tt| tt.to_string())
            .collect(),
        _ => Vec::new(),
    }
}

/// Skips `#[...]` attributes and `pub` / `pub(...)` visibility starting at
/// `i`, returning the next index and the words of every `#[serde(...)]`
/// attribute skipped.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> (usize, Vec<String>) {
    let mut serde = Vec::new();
    loop {
        if i < tokens.len() && is_punct(&tokens[i], '#') {
            i += 1; // '#'
            if i < tokens.len()
                && matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket)
            {
                serde.extend(serde_words(&tokens[i]));
                i += 1;
            }
            continue;
        }
        if i < tokens.len() && is_ident(&tokens[i], "pub") {
            i += 1;
            if i < tokens.len()
                && matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
            continue;
        }
        return (i, serde);
    }
}

/// Skips attributes and visibility before a field or variant, which may
/// carry no `#[serde(...)]` attribute.
fn skip_member_attrs(tokens: &[TokenTree], i: usize) -> Result<usize, String> {
    match skip_attrs_and_vis(tokens, i) {
        (next, serde) if serde.is_empty() => Ok(next),
        (_, serde) => Err(format!(
            "serde shim derive does not support #[serde({})] on a field or variant",
            serde.join(", ")
        )),
    }
}

/// Counts the comma-separated items at angle-depth 0 in a token list
/// (for tuple struct/variant arity).
fn count_tuple_fields(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1usize;
    let mut saw_item = false;
    for tt in tokens {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_item = false;
                continue;
            }
            _ => {}
        }
        saw_item = true;
    }
    if !saw_item {
        fields -= 1; // trailing comma
    }
    fields
}

/// Parses named fields from the tokens of a brace group.
fn parse_named_fields(tokens: &[TokenTree]) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_member_attrs(tokens, i)?;
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected field name, found {}", tokens[i]));
        };
        names.push(name.to_string());
        i += 1;
        if i >= tokens.len() || !is_punct(&tokens[i], ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        i += 1;
        // Skip the type: everything until a comma at angle-depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Ok(names)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (mut i, serde) = skip_attrs_and_vis(&tokens, 0);
    let mut deny_unknown_fields = false;
    for word in serde {
        if word != "deny_unknown_fields" {
            return Err(format!(
                "serde shim derive does not support #[serde({word})]"
            ));
        }
        deny_unknown_fields = true;
    }

    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;

    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        return Err("expected type name".to_string());
    };
    let name = name.to_string();
    i += 1;

    if i < tokens.len() && is_punct(&tokens[i], '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    if kind == "struct" {
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::Named(parse_named_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::Tuple(count_tuple_fields(&inner))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            other => return Err(format!("unexpected struct body: {other:?}")),
        };
        if deny_unknown_fields && !matches!(shape, Shape::Named(_)) {
            return Err(format!(
                "#[serde(deny_unknown_fields)] needs a struct with named fields (`{name}`)"
            ));
        }
        return Ok(Item::Struct {
            name,
            shape,
            deny_unknown_fields,
        });
    }
    if deny_unknown_fields {
        return Err(format!(
            "#[serde(deny_unknown_fields)] needs a struct with named fields (`{name}`)"
        ));
    }

    // Enum.
    let Some(TokenTree::Group(body)) = tokens.get(i) else {
        return Err("expected enum body".to_string());
    };
    let body: Vec<TokenTree> = body.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut j = 0;
    while j < body.len() {
        j = skip_member_attrs(&body, j)?;
        if j >= body.len() {
            break;
        }
        let TokenTree::Ident(vname) = &body[j] else {
            return Err(format!("expected variant name, found {}", body[j]));
        };
        let vname = vname.to_string();
        j += 1;
        let shape = match body.get(j) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                j += 1;
                Shape::Named(parse_named_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                j += 1;
                Shape::Tuple(count_tuple_fields(&inner))
            }
            _ => Shape::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        while j < body.len() && !is_punct(&body[j], ',') {
            j += 1;
        }
        j += 1;
        variants.push(Variant { name: vname, shape });
    }
    Ok(Item::Enum { name, variants })
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

/// Derives the shim `serde::Serialize` (`to_value`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return compile_error(&e),
    };
    let code = match item {
        Item::Struct { name, shape, .. } => {
            let body = match shape {
                Shape::Unit => "::serde::Value::Null".to_string(),
                Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..n)
                        .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
                Shape::Named(fields) => {
                    let items: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}))")
                        })
                        .collect();
                    format!("::serde::Value::Object(vec![{}])", items.join(", "))
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = Vec::new();
            for v in &variants {
                let vn = &v.name;
                let arm = match &v.shape {
                    Shape::Unit => format!(
                        "{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),"
                    ),
                    Shape::Tuple(1) => format!(
                        "{name}::{vn}(x0) => ::serde::Value::Object(vec![({vn:?}.to_string(), ::serde::Serialize::to_value(x0))]),"
                    ),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("x{k}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{vn}({}) => ::serde::Value::Object(vec![({vn:?}.to_string(), ::serde::Value::Array(vec![{}]))]),",
                            binds.join(", "),
                            vals.join(", ")
                        )
                    }
                    Shape::Named(fields) => {
                        let binds = fields.join(", ");
                        let vals: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("({f:?}.to_string(), ::serde::Serialize::to_value({f}))")
                            })
                            .collect();
                        format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![({vn:?}.to_string(), ::serde::Value::Object(vec![{}]))]),",
                            vals.join(", ")
                        )
                    }
                };
                arms.push(arm);
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// Derives the shim `serde::Deserialize` (`from_value`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return compile_error(&e),
    };
    let code = match item {
        Item::Struct {
            name,
            shape,
            deny_unknown_fields,
        } => {
            let body = match shape {
                Shape::Unit => format!("{{ let _ = v; Ok({name}) }}"),
                Shape::Tuple(1) => format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
                Shape::Tuple(n) => {
                    let gets: Vec<String> = (0..n)
                        .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                        .collect();
                    format!(
                        "{{\n\
                            let items = v.as_array().ok_or_else(|| ::serde::DeError::expected(\"array\", v, {name:?}))?;\n\
                            if items.len() != {n} {{ return Err(::serde::DeError::msg(format!(\"expected {n} elements for {name}, found {{}}\", items.len()))); }}\n\
                            Ok({name}({}))\n\
                        }}",
                        gets.join(", ")
                    )
                }
                Shape::Named(fields) => {
                    let gets: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(::serde::get_field(obj, {f:?})?)?,"
                            )
                        })
                        .collect();
                    let check = if deny_unknown_fields {
                        format!("::serde::deny_unknown_fields(obj, &{fields:?})?;")
                    } else {
                        String::new()
                    };
                    format!(
                        "{{\n\
                            let obj = v.as_object().ok_or_else(|| ::serde::DeError::expected(\"object\", v, {name:?}))?;\n\
                            {check}\n\
                            Ok({name} {{\n{}\n}})\n\
                        }}",
                        gets.join("\n")
                    )
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = Vec::new();
            let mut tagged_arms = Vec::new();
            for v in &variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms.push(format!("{vn:?} => Ok({name}::{vn}),")),
                    Shape::Tuple(1) => tagged_arms.push(format!(
                        "{vn:?} => Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                    )),
                    Shape::Tuple(n) => {
                        let gets: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                            .collect();
                        tagged_arms.push(format!(
                            "{vn:?} => {{\n\
                                let items = inner.as_array().ok_or_else(|| ::serde::DeError::expected(\"array\", inner, {vn:?}))?;\n\
                                if items.len() != {n} {{ return Err(::serde::DeError::msg(format!(\"expected {n} elements for {name}::{vn}, found {{}}\", items.len()))); }}\n\
                                Ok({name}::{vn}({}))\n\
                            }}",
                            gets.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let gets: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(::serde::get_field(obj, {f:?})?)?,"
                                )
                            })
                            .collect();
                        tagged_arms.push(format!(
                            "{vn:?} => {{\n\
                                let obj = inner.as_object().ok_or_else(|| ::serde::DeError::expected(\"object\", inner, {vn:?}))?;\n\
                                Ok({name}::{vn} {{\n{}\n}})\n\
                            }}",
                            gets.join("\n")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => Err(::serde::DeError::msg(format!(\"unknown unit variant {{other}} for {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(fields) if fields.len() == 1 => {{\n\
                                 let (tag, inner) = &fields[0];\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     other => Err(::serde::DeError::msg(format!(\"unknown variant {{other}} for {name}\"))),\n\
                                 }}\n\
                             }},\n\
                             other => Err(::serde::DeError::expected(\"enum representation\", other, {name:?})),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                tagged_arms.join("\n"),
            )
        }
    };
    code.parse().unwrap()
}

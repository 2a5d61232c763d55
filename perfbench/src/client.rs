//! The benchmark's side of the JSON-lines wire protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use atlas_serve::{ErrorResponse, PredictDeltaResponse, PredictResponse, StatsResponse};
use serde::{Deserialize, Serialize, Value};

/// One client connection: requests and replies are single lines.
pub struct Conn {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A server that stops answering fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        recv_line(&mut self.reader)
    }

    /// Send one line and wait for one reply; also returns the round trip.
    pub fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        self.send(line)?;
        let reply = self.recv()?;
        Ok((reply, ms_since(t)))
    }
}

pub fn recv_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".to_owned()),
        Ok(_) => Ok(line),
        Err(e) => Err(format!("recv: {e}")),
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A request line: `body` rendered as JSON, with `verb` added when given.
pub fn line<T: Serialize>(verb: Option<&str>, body: &T) -> String {
    let json = serde_json::to_string(body).expect("request renders");
    match verb {
        Some(verb) => format!("{{\"verb\":\"{verb}\",{}", &json[1..]),
        None => json,
    }
}

/// A parsed reply line.
pub enum Reply {
    Predict(PredictResponse),
    Delta(PredictDeltaResponse),
    Error(ErrorResponse),
    /// A successful reply of another verb (`load_design`, ...).
    Other,
}

impl Reply {
    pub fn parse(text: &str) -> Result<Reply, String> {
        let value =
            serde_json::from_str_value(text.trim()).map_err(|e| format!("bad reply: {e}"))?;
        let map = value.as_map().ok_or("reply is not an object")?;
        let has = |key: &str| map.iter().any(|(k, _)| k == key);
        let verb = map
            .iter()
            .find(|(k, _)| k == "verb")
            .and_then(|(_, v)| v.as_str());
        let parsed = if has("error") {
            ErrorResponse::from_value(&value).map(Reply::Error)
        } else if verb == Some("predict_delta") {
            PredictDeltaResponse::from_value(&value).map(Reply::Delta)
        } else if verb.is_some() {
            Ok(Reply::Other)
        } else {
            PredictResponse::from_value(&value).map(Reply::Predict)
        };
        parsed.map_err(|e| format!("bad reply `{}`: {e}", clip(text)))
    }

    /// The reply as a prediction, or the error it carries.
    pub fn predict(self) -> Result<PredictResponse, String> {
        match self {
            Reply::Predict(p) => Ok(p),
            Reply::Error(e) => Err(format!("{}: {}", e.kind, e.error)),
            _ => Err("expected a predict reply".to_owned()),
        }
    }

    pub fn delta(self) -> Result<PredictDeltaResponse, String> {
        match self {
            Reply::Delta(d) => Ok(d),
            Reply::Error(e) => Err(format!("{}: {}", e.kind, e.error)),
            _ => Err("expected a predict_delta reply".to_owned()),
        }
    }

    /// `Err` when the reply is an error reply.
    pub fn ok(self) -> Result<(), String> {
        match self {
            Reply::Error(e) => Err(format!("{}: {}", e.kind, e.error)),
            _ => Ok(()),
        }
    }
}

/// One `stats` round trip.
pub fn stats(addr: &str) -> Result<StatsResponse, String> {
    let (reply, _) = Conn::connect(addr)?.call("{\"verb\":\"stats\"}")?;
    let value = serde_json::from_str_value(reply.trim()).map_err(|e| format!("stats: {e}"))?;
    StatsResponse::from_value(&value).map_err(|e| format!("stats `{}`: {e}", clip(&reply)))
}

pub fn clip(text: &str) -> &str {
    let text = text.trim();
    match text.char_indices().nth(200) {
        Some((at, _)) => &text[..at],
        None => text,
    }
}

/// Build a JSON object from `(key, value)` pairs, keeping their order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

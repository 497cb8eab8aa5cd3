// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the dependency-free network layer: the incremental HTTP/1.1
// parser (chunk-boundary robustness, pipelining, limits), the response
// serializer, the epoll event loop, and real loopback round-trips against
// the HttpServer (keep-alive, HEAD, error paths, multi-thread loops).

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/event_loop.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/socket.h"

namespace grca::net {
namespace {

// --- HttpParser -----------------------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  std::string raw =
      "GET /api/breakdown?from=100&location=pop%3Achi HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: Value\r\n"
      "\r\n";
  ASSERT_TRUE(parser.feed(raw.data(), raw.size()));
  ASSERT_TRUE(parser.has_request());
  HttpRequest req = parser.next();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/api/breakdown");
  EXPECT_EQ(req.query_value("from"), "100");
  EXPECT_EQ(req.query_value("location"), "pop:chi");  // percent-decoded
  EXPECT_EQ(req.query_value("absent"), "");
  EXPECT_EQ(req.headers.at("host"), "localhost");     // names lowercased
  EXPECT_EQ(req.headers.at("x-custom"), "Value");     // values preserved
  EXPECT_TRUE(req.keep_alive);
  EXPECT_FALSE(parser.has_request());
}

TEST(HttpParser, ReassemblesAcrossArbitraryChunks) {
  std::string raw =
      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  // Feed one byte at a time: the parser must behave identically to a
  // single-shot feed (bytes arrive in arbitrary chunks from the socket).
  HttpParser parser;
  for (char c : raw) ASSERT_TRUE(parser.feed(&c, 1));
  ASSERT_TRUE(parser.has_request());
  EXPECT_EQ(parser.next().path, "/metrics");
}

TEST(HttpParser, PipelinedRequestsComeOutInOrder) {
  HttpParser parser;
  std::string raw =
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(parser.feed(raw.data(), raw.size()));
  EXPECT_EQ(parser.next().path, "/a");
  EXPECT_EQ(parser.next().path, "/b");
  EXPECT_EQ(parser.next().path, "/c");
  EXPECT_FALSE(parser.has_request());
}

TEST(HttpParser, KeepAliveDefaults) {
  HttpParser parser;
  std::string raw =
      "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /b HTTP/1.0\r\n\r\n"
      "GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
  ASSERT_TRUE(parser.feed(raw.data(), raw.size()));
  EXPECT_FALSE(parser.next().keep_alive);  // 1.1 + close
  EXPECT_FALSE(parser.next().keep_alive);  // 1.0 default
  EXPECT_TRUE(parser.next().keep_alive);   // 1.0 + keep-alive
}

TEST(HttpParser, BodyViaContentLength) {
  HttpParser parser;
  std::string raw =
      "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /next HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(parser.feed(raw.data(), raw.size()));
  HttpRequest post = parser.next();
  EXPECT_EQ(post.method, "POST");
  EXPECT_EQ(post.body, "hello");
  EXPECT_EQ(parser.next().path, "/next");  // no bleed into the next request
}

TEST(HttpParser, ContentLengthParsesInFull) {
  for (const char* length : {"12x", "x", "-1", " ", "5 5", "+5"}) {
    HttpParser parser;
    std::string raw = "POST /ingest HTTP/1.1\r\nContent-Length: " +
                      std::string(length) + "\r\n\r\nhello world!";
    EXPECT_FALSE(parser.feed(raw.data(), raw.size())) << length;
    EXPECT_TRUE(parser.errored()) << length;
    EXPECT_EQ(parser.error_status(), 400) << length;
    EXPECT_FALSE(parser.has_request()) << length;
  }
}

TEST(HttpParser, OversizedHeadersRejectedWith431) {
  HttpParser parser;
  std::string raw = "GET / HTTP/1.1\r\nX-Big: ";
  raw.append(HttpParser::kMaxHeaderBytes, 'a');
  EXPECT_FALSE(parser.feed(raw.data(), raw.size()));
  EXPECT_TRUE(parser.errored());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, OversizedBodyRejectedWith413) {
  HttpParser parser;
  std::string raw = "POST / HTTP/1.1\r\nContent-Length: " +
                    std::to_string(HttpParser::kMaxBodyBytes + 1) + "\r\n\r\n";
  EXPECT_FALSE(parser.feed(raw.data(), raw.size()));
  EXPECT_TRUE(parser.errored());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, MalformedRequestLineRejectedWith400) {
  HttpParser parser;
  std::string raw = "NOT_A_REQUEST\r\n\r\n";
  EXPECT_FALSE(parser.feed(raw.data(), raw.size()));
  EXPECT_TRUE(parser.errored());
  EXPECT_EQ(parser.error_status(), 400);
  // Further bytes are ignored in the error state.
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\n\r\n", 18));
  EXPECT_FALSE(parser.has_request());
}

TEST(UrlDecode, DecodesEscapesAndForms) {
  EXPECT_EQ(url_decode("a%20b", false), "a b");
  EXPECT_EQ(url_decode("a+b", false), "a+b");    // '+' literal in paths
  EXPECT_EQ(url_decode("a+b", true), "a b");     // '+' is space in forms
  EXPECT_EQ(url_decode("%3a%2F", false), ":/");  // case-insensitive hex
  EXPECT_EQ(url_decode("100%", false), "100%");  // malformed passes through
  EXPECT_EQ(url_decode("%zz", false), "%zz");
}

TEST(Serialize, HeadCarriesLengthButNoBody) {
  HttpResponse resp;
  resp.body = "0123456789";
  std::string full = serialize(resp, /*keep_alive=*/true, /*head_only=*/false);
  std::string head = serialize(resp, /*keep_alive=*/true, /*head_only=*/true);
  EXPECT_NE(full.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(full.find("0123456789"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 10"), std::string::npos);
  EXPECT_EQ(head.find("0123456789"), std::string::npos);
  std::string closing = serialize(resp, /*keep_alive=*/false, false);
  EXPECT_NE(closing.find("Connection: close"), std::string::npos);
}

// --- EventLoop ------------------------------------------------------------

TEST(EventLoop, StopWakesFromAnotherThread) {
  EventLoop loop;
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    loop.run();
    finished.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(finished.load());
  loop.stop();
  runner.join();
  EXPECT_TRUE(finished.load());
}

TEST(EventLoop, DispatchesReadableAndTicks) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  set_nonblocking(pipe_fds[0]);
  EventLoop loop;
  std::atomic<int> reads{0};
  std::atomic<int> ticks{0};
  loop.add(pipe_fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[16];
    while (::read(pipe_fds[0], buf, sizeof buf) > 0) {
    }
    reads.fetch_add(1);
    if (reads.load() >= 2) loop.stop();
  });
  std::thread writer([&] {
    ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_EQ(::write(pipe_fds[1], "y", 1), 1);
  });
  loop.run([&] { ticks.fetch_add(1); }, /*tick_interval_ms=*/25);
  writer.join();
  EXPECT_EQ(reads.load(), 2);
  EXPECT_GE(ticks.load(), 1);  // the idle gap spans several tick intervals
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

// --- HttpServer loopback round-trips --------------------------------------

/// Reads one full HTTP response off a blocking socket (status line +
/// headers + Content-Length body) so keep-alive connections can be reused.
/// `head_only` skips the body wait — HEAD advertises a Content-Length it
/// never sends.
std::string read_response(int fd, bool head_only = false) {
  std::string data;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  while (true) {
    if (header_end == std::string::npos) {
      header_end = data.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::size_t at = data.find("Content-Length: ");
        content_length =
            at == std::string::npos || head_only
                ? 0
                : static_cast<std::size_t>(std::stoul(data.substr(at + 16)));
        header_end += 4;
      }
    }
    if (header_end != std::string::npos &&
        data.size() >= header_end + content_length) {
      return data.substr(0, header_end + content_length);
    }
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return data;
    data.append(buf, static_cast<std::size_t>(n));
  }
}

std::string request(int fd, const std::string& raw, bool head_only = false) {
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  return read_response(fd, head_only);
}

HttpServer echo_server(unsigned threads = 1) {
  HttpServerOptions opt;
  opt.threads = threads;
  return HttpServer(
      [](const HttpRequest& req) {
        if (req.path == "/boom") throw std::runtime_error("handler bug");
        HttpResponse resp;
        resp.content_type = "text/plain";
        resp.body = "echo:" + req.path + "?" + req.query_value("q");
        return resp;
      },
      opt);
}

TEST(HttpServer, ServesSingleRequest) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  ASSERT_TRUE(client.valid());
  std::string resp = request(
      client.get(), "GET /hello?q=world HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("echo:/hello?world"), std::string::npos);
  server.stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServer, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  for (int i = 0; i < 10; ++i) {
    std::string resp = request(client.get(),
                               "GET /r" + std::to_string(i) +
                                   " HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(resp.find("echo:/r" + std::to_string(i)), std::string::npos);
  }
  server.stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 10u);
}

TEST(HttpServer, HeadGetsHeadersOnly) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  std::string resp = request(client.get(),
                             "HEAD /x HTTP/1.1\r\nHost: x\r\n\r\n",
                             /*head_only=*/true);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(resp.find("echo:"), std::string::npos);
  server.stop();
}

TEST(HttpServer, RejectsUnsupportedMethodWith405) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  std::string resp = request(
      client.get(), "DELETE /x HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("405"), std::string::npos);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  std::string resp =
      request(client.get(), "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("500"), std::string::npos);
  // The connection survives a handler exception.
  std::string next =
      request(client.get(), "GET /ok HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(next.find("echo:/ok"), std::string::npos);
  server.stop();
}

TEST(HttpServer, MalformedRequestGets400AndClose) {
  HttpServer server = echo_server();
  server.start();
  Fd client = connect_loopback(server.port());
  std::string resp = request(client.get(), "garbage\r\n\r\n");
  EXPECT_NE(resp.find("400"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  server.stop();
}

TEST(HttpServer, MultiThreadLoopsServeConcurrentClients) {
  HttpServer server = echo_server(/*threads=*/2);
  server.start();
  constexpr int kClients = 16;
  constexpr int kRequests = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Fd fd = connect_loopback(server.port());
      if (!fd.valid()) return;
      for (int r = 0; r < kRequests; ++r) {
        std::string path = "/c" + std::to_string(c) + "/r" + std::to_string(r);
        std::string resp = request(
            fd.get(), "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
        if (resp.find("echo:" + path) != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  HttpServer server = echo_server();
  server.start();
  std::uint16_t port = server.port();
  EXPECT_GT(port, 0);
  server.stop();
  server.stop();  // idempotent
  server.start();
  EXPECT_TRUE(server.running());
  Fd client = connect_loopback(server.port());
  std::string resp =
      request(client.get(), "GET /again HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("echo:/again"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace grca::net
